package core

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzDecodeFrames checks the frame codec's WAL invariants on arbitrary
// input: never panic, always return a valid prefix (re-encoding the decoded
// frames reproduces exactly the consumed bytes), and err == nil iff the
// whole input was consumed. Walking the input with the in-place iterator sees
// the same frames, the same consumed prefix and the same error text.
func FuzzDecodeFrames(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeFrame(nil, frameMapDelta, 1, 2, []byte("abc")))
	two := encodeFrame(nil, frameShuffle, 3, 0, nil)
	two = encodeFrame(two, frameReduce, 4, 9, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(two)
	f.Add(two[:len(two)-3]) // torn tail
	flipped := append([]byte(nil), two...)
	flipped[frameHdrLen] ^= 0x80
	f.Add(flipped) // corrupted payload
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, consumed, err := decodeFramesPrefix(data)
		if consumed > len(data) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		if (err == nil) != (consumed == len(data)) {
			t.Fatalf("err=%v but consumed %d of %d", err, consumed, len(data))
		}
		var re []byte
		for _, fr := range frames {
			re = encodeFrame(re, fr.kind, fr.a, fr.b, fr.payload)
		}
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("re-encoding %d frames does not reproduce the consumed prefix", len(frames))
		}
		idx, off, werr := 0, 0, error(nil)
		for off < len(data) {
			fr, n, e := nextFrame(data[off:])
			if e != nil {
				werr = frameErr(idx, off, e)
				break
			}
			if idx >= len(frames) || fr.kind != frames[idx].kind || fr.a != frames[idx].a || fr.b != frames[idx].b ||
				!bytes.Equal(fr.payload, frames[idx].payload) {
				t.Fatalf("iterator frame %d differs from decodeFramesPrefix", idx)
			}
			idx, off = idx+1, off+n
		}
		if idx != len(frames) || off != consumed || fmt.Sprint(werr) != fmt.Sprint(err) {
			t.Fatalf("iterator: %d frames, %d bytes, %v; decodeFramesPrefix: %d frames, %d bytes, %v",
				idx, off, werr, len(frames), consumed, err)
		}
		if n := countFrames(data); n != len(frames) {
			t.Fatalf("countFrames = %d, want %d", n, len(frames))
		}
	})
}
