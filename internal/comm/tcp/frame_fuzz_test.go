package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/sparse-dl/samo/internal/comm"
)

// FuzzDecodeFrames feeds arbitrary bytes — a frame body as readLoop hands
// it to dispatch, kind byte first — through every frame decoder. No input
// may panic, and any frame a decoder accepts must re-encode to exactly the
// bytes it came from (the kind byte aside: each decoder is given every
// input), so the codec admits one encoding per message.
//
//	go test ./internal/comm/tcp/ -run '^$' -fuzz '^FuzzDecodeFrames$' -fuzztime 10s
func FuzzDecodeFrames(f *testing.F) {
	wire := &comm.Pool[byte]{Max: maxPoolBytes}
	body := func(frame []byte) []byte { return append([]byte(nil), frame[4:]...) }
	f.Add(body(encodeData(wire, 1, comm.Message{From: 0, Tag: comm.TagGradient, MB: 3, Seq: 9,
		Data: []float32{1, -2.5, 3e-8}, Shape: []int{1, 3}})))
	f.Add(body(encodeData(wire, 0, comm.Message{From: 2, Tag: comm.TagActivation})))
	f.Add(body(encodeColl(wire, 2, comm.CollFrame{From: 1, Tag: 1<<20 + 1,
		Data: []float32{0.5, math.Float32frombits(0xffc00001)}})))
	f.Add(body(encodeColl(wire, 0, comm.CollFrame{From: 3, Tag: 7})))
	for _, err := range []error{
		&comm.RankFailedError{Rank: 2, Step: -1},
		&comm.DeadlineError{Rank: 1, Step: 40, Timeout: 150 * time.Millisecond},
		comm.ErrFabricClosed,
		errors.New("ckpt: fsync failed"),
	} {
		f.Add(body(encodePoison(wire, err)))
	}
	f.Add([]byte{})
	f.Add([]byte{frameData, 0xff, 0xff, 0xff, 0x7f})

	fab := comm.NewFabric(1)
	f.Fuzz(func(t *testing.T, in []byte) {
		// same reports whether frame is the length prefix and kind byte
		// followed by in's body.
		same := func(frame []byte, kind byte) bool {
			return len(in) > 0 && len(frame) == 4+len(in) &&
				binary.LittleEndian.Uint32(frame) == uint32(len(in)) &&
				frame[4] == kind && bytes.Equal(frame[5:], in[1:])
		}
		if to, m, err := decodeData(in); err == nil {
			if out := encodeData(wire, to, m); !same(out, frameData) {
				t.Fatalf("data frame %x re-encodes to %x", in, out[4:])
			}
		}
		if to, fr, err := decodeColl(in, fab); err == nil {
			if out := encodeColl(wire, to, fr); !same(out, frameColl) {
				t.Fatalf("coll frame %x re-encodes to %x", in, out[4:])
			}
			fab.RecycleWireBuf(fr.Data)
		}
		if err := decodePoison(in); err != errMalformedPoison {
			if out := encodePoison(wire, err); !same(out, framePoison) {
				t.Fatalf("poison frame %x (%v) re-encodes to %x", in, err, out[4:])
			}
		}
	})
}
