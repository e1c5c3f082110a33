package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/sparse-dl/samo/internal/comm"
)

// FuzzReadFrames feeds arbitrary bytes through the streaming reader as one
// inbound connection delivers them to proc 0 (ranks 0-1) of a two-process,
// four-rank fabric: the handshake first, then frames until the reader stops.
// No input may panic; a frame whose header fails a check must be rejected
// before the reader takes a payload buffer; and every frame the reader
// accepts must, written back by the frame writer, give exactly the bytes it
// was read from — so the codec admits one encoding per frame.
//
//	go test ./internal/comm/tcp/ -run '^$' -fuzz '^FuzzReadFrames$' -fuzztime 10s
func FuzzReadFrames(f *testing.F) {
	var w frameWriter
	stream := func(frames ...frame) []byte {
		var b bytes.Buffer
		writeHandshake(&b, 1)
		for i := range frames {
			w.write(&b, &frames[i])
		}
		return b.Bytes()
	}
	poison := func(err error) frame { return frame{kind: framePoison, err: err} }
	f.Add(stream(frame{kind: frameData, to: 1, msg: comm.Message{From: 2, Tag: comm.TagGradient, MB: 3, Seq: 9,
		Data: []float32{1, -2.5, 3e-8}, Shape: []int{1, 3}}}))
	f.Add(stream(frame{kind: frameData, to: 0, msg: comm.Message{From: 3, Tag: comm.TagActivation}}))
	f.Add(stream(frame{kind: frameColl, to: 1, coll: comm.CollFrame{From: 2, Tag: 1<<20 + 1,
		Data: []float32{0.5, math.Float32frombits(0xffc00001)}}}))
	f.Add(stream(frame{kind: frameColl, to: 0, coll: comm.CollFrame{From: 3, Tag: 7}}))
	f.Add(stream(poison(&comm.RankFailedError{Rank: 2, Step: -1})))
	f.Add(stream(poison(&comm.DeadlineError{Rank: 1, Step: 40, Timeout: 150 * time.Millisecond})))
	f.Add(stream(poison(comm.ErrFabricClosed)))
	f.Add(stream(poison(errors.New("ckpt: fsync failed"))))
	f.Add([]byte{})
	f.Add(append(stream(), 0x1d, 0, 0, 0, frameData, 0xff, 0xff, 0xff, 0x7f))
	// A length prefix claiming maxFrameBytes, then a header whose source is
	// not the peer's.
	f.Add(binary.LittleEndian.AppendUint32(stream(), maxFrameBytes))
	f.Add(append(stream(frame{kind: frameColl, to: 0, coll: comm.CollFrame{From: 2, Tag: 1, Data: []float32{2}}}),
		0, 0, 0, 0x10, frameColl, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0))

	f.Fuzz(func(t *testing.T, in []byte) {
		src := bytes.NewReader(in)
		if proc, err := readHandshake(src); err != nil || proc != 1 {
			return // Connect drops the connection
		}
		taken := 0
		rd := frameReader{r: src, local: [2]int{0, 2}, peer: [2]int{2, 4},
			take: func(_ byte, n int) []float32 { taken++; return make([]float32, n) }}
		var w frameWriter
		for {
			start, before := len(in)-src.Len(), taken
			fr, err := rd.next()
			if errors.Is(err, errBadFrame) && taken != before {
				t.Fatalf("frame at byte %d: rejected (%v) after taking a payload buffer", start, err)
			}
			if err != nil {
				return // the link fails here
			}
			if fr.err == errMalformedPoison {
				continue // delivered as the generic poison, which has its own encoding
			}
			var out bytes.Buffer
			if err := w.write(&out, &fr); err != nil {
				t.Fatal(err)
			}
			if read := in[start : len(in)-src.Len()]; !bytes.Equal(out.Bytes(), read) {
				t.Fatalf("frame %x writes back as %x", read, out.Bytes())
			}
		}
	})
}

// TestForeignByteOrderRoundTrips runs a host of the other byte order's path
// on this one, by flipping littleEndian: the writer must put every payload
// word on the wire reversed and hand the caller its payload back bit for bit,
// and the reader must undo the reversal.
func TestForeignByteOrderRoundTrips(t *testing.T) {
	data := []float32{1, -2.5, math.Float32frombits(0xffc00001)}
	want := append([]float32(nil), data...)
	var native, foreign bytes.Buffer
	var w frameWriter
	fr := frame{kind: frameColl, to: 0, coll: comm.CollFrame{From: 2, Tag: 1, Data: data}}
	w.write(&native, &fr)
	littleEndian = !littleEndian
	defer func() { littleEndian = !littleEndian }()
	w.write(&foreign, &fr)
	if !slices.Equal(bitsOf(data), bitsOf(want)) {
		t.Fatalf("payload after write %v, want %v", data, want)
	}
	nb, fb := native.Bytes(), foreign.Bytes()
	const hdr = 21
	if !bytes.Equal(fb[:hdr], nb[:hdr]) {
		t.Fatalf("header %x, want the native path's %x", fb[:hdr], nb[:hdr])
	}
	for i := hdr; i < len(nb); i++ {
		if j := hdr + (i-hdr)/4*4 + 3 - (i-hdr)%4; fb[i] != nb[j] {
			t.Fatalf("wire byte %d is %#x, want %#x", i, fb[i], nb[j])
		}
	}
	rd := frameReader{r: &foreign, local: [2]int{0, 2}, peer: [2]int{2, 4},
		take: func(_ byte, n int) []float32 { return make([]float32, n) }}
	got, err := rd.next()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bitsOf(got.coll.Data), bitsOf(want)) {
		t.Fatalf("read back %v, want %v", got.coll.Data, want)
	}
}

func bitsOf(f []float32) []uint32 {
	b := make([]uint32, len(f))
	for i, v := range f {
		b[i] = math.Float32bits(v)
	}
	return b
}
