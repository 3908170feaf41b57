package machine

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// keyState is one solver state as encodeKey sees it.
type keyState struct {
	cfg     uint64
	digests []uint64
	allocs  []Alloc
}

// decodeKeyState reads a state from fuzz bytes: the config digest, an
// app count byte, then per app its model digest, CBM and MBA level, each
// eight little-endian bytes. A short input reads as zeros from its end.
func decodeKeyState(b []byte) keyState {
	word := func() uint64 {
		var w [8]byte
		b = b[copy(w[:], b):]
		return binary.LittleEndian.Uint64(w[:])
	}
	s := keyState{cfg: word()}
	n := 0
	if len(b) > 0 {
		n, b = int(b[0]), b[1:]
	}
	for i := 0; i < n; i++ {
		s.digests = append(s.digests, word())
		s.allocs = append(s.allocs, Alloc{CBM: word(), MBALevel: int(int64(word()))})
	}
	return s
}

// encodeKeyState is decodeKeyState's inverse, for seeding the corpus.
func encodeKeyState(s keyState) []byte {
	b := binary.LittleEndian.AppendUint64(nil, s.cfg)
	b = append(b, byte(len(s.digests)))
	for i, d := range s.digests {
		b = binary.LittleEndian.AppendUint64(b, d)
		b = binary.LittleEndian.AppendUint64(b, s.allocs[i].CBM)
		b = binary.LittleEndian.AppendUint64(b, uint64(s.allocs[i].MBALevel))
	}
	return b
}

// FuzzEncodeKey checks that the cache key is injective: the shared
// cache's maps compare nothing but these bytes, so two states must
// encode to equal keys if and only if they are equal.
func FuzzEncodeKey(f *testing.F) {
	apps := func(n int, cbm uint64) keyState {
		s := keyState{cfg: 1}
		for i := 0; i < n; i++ {
			s.digests = append(s.digests, uint64(i))
			s.allocs = append(s.allocs, Alloc{CBM: cbm, MBALevel: 100})
		}
		return s
	}
	// Varint boundaries: CBMs on either side of one and two bytes, app
	// counts on either side of one byte, and an equal pair.
	for _, pair := range [][2]uint64{{0x7f, 0x80}, {0x3fff, 0x4000}, {0x80, 0x80}} {
		f.Add(encodeKeyState(apps(1, pair[0])), encodeKeyState(apps(1, pair[1])))
	}
	for _, pair := range [][2]int{{0, 1}, {127, 128}} {
		f.Add(encodeKeyState(apps(pair[0], 0x7ff)), encodeKeyState(apps(pair[1], 0x7ff)))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		sa, sb := decodeKeyState(a), decodeKeyState(b)
		var sc solveScratch
		sc.encodeKey(sa.cfg, sa.digests, sa.allocs)
		ka := bytes.Clone(sc.key)
		sc.encodeKey(sb.cfg, sb.digests, sb.allocs)
		same := sa.cfg == sb.cfg && slices.Equal(sa.digests, sb.digests) && slices.Equal(sa.allocs, sb.allocs)
		if bytes.Equal(ka, sc.key) != same {
			t.Fatalf("states of %d and %d apps: equal states %v, equal keys %v", len(sa.digests), len(sb.digests), same, !same)
		}
	})
}
