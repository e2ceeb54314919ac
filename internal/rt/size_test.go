package rt

import (
	"testing"
	"unsafe"
)

// TestWorkerSizeClass pins Worker inside the runtime allocator's 416-byte
// size class: growing it into the next class (480 B) shows up as extra
// bytes per run in every allocation metric. It also checks that the
// causal-tracing fields, cold in untraced runs, fill the last 32 bytes,
// which may share a cache line with the next object in memory.
func TestWorkerSizeClass(t *testing.T) {
	var w Worker
	sz := unsafe.Sizeof(w)
	if sz > 416 {
		t.Fatalf("Worker is %d bytes, want <= 416 (one allocation size class)", sz)
	}
	if off := unsafe.Offsetof(w.spanSeq); sz-off < 32 {
		t.Fatalf("Worker has %d bytes from spanSeq to its end, want the last 32 to be causal-tracing state", sz-off)
	}
}
