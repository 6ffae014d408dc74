package server

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// TestReadFrameAllocatesAsBytesArrive: a header declaring MaxFrame
// followed by EOF must fail after allocating about one read chunk, not
// the declared 64 MiB. Each stalled connection could otherwise pin the
// full frame.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame)
	hdr[4] = msgRestore
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("frame truncated after its header was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("truncated MaxFrame frame allocated %d bytes, want < 2 MiB", got)
	}
}

// TestReadFrameRoundTrip: bodies on both sides of the read chunk
// arrive intact, and a body up to one chunk costs one allocation more
// than an empty one.
func TestReadFrameRoundTrip(t *testing.T) {
	frameOf := func(size int) ([]byte, []byte) {
		body := make([]byte, size)
		for i := range body {
			body[i] = byte(i * 7)
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, msgIngest, nil, body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), body
	}
	allocs := func(frame []byte) float64 {
		r := bytes.NewReader(frame)
		return testing.AllocsPerRun(5, func() {
			r.Reset(frame)
			readFrame(r)
		})
	}
	empty, _ := frameOf(0)
	base := allocs(empty)
	for _, size := range []int{0, 1, readChunk - 1, readChunk, readChunk + 1, 3*readChunk + 5} {
		frame, body := frameOf(size)
		typ, got, err := readFrame(bytes.NewReader(frame))
		if err != nil || typ != msgIngest || !bytes.Equal(got, body) {
			t.Fatalf("size %d: got type %#x, %d bytes, err %v", size, typ, len(got), err)
		}
		if size > 0 && size <= readChunk {
			if n := allocs(frame); n != base+1 {
				t.Errorf("size %d: %.0f allocations, want %.0f (one for the body)", size, n, base+1)
			}
		}
	}
}
