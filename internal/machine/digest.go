package machine

import (
	"encoding/binary"
	"math"
)

// Incremental fingerprints: every solver input is condensed into 64-bit
// FNV-1a digests so a cache key is O(apps) fixed-width appends instead
// of re-encoding every model field and Hot entry per lookup. The digest
// covers exactly the fields the solver reads — and nothing else — so
// two models with equal digest inputs are interchangeable to Solve:
//
//   - modelDigest folds the per-app fields (Cores, Socket, CPIBase,
//     AccPerInstr, StreamFrac, MLP, and each Hot component). Name is
//     deliberately excluded (it never affects the solved steady state)
//     and Phases are excluded because callers digest the *resolved*
//     model (AtTime already folded the active phase into the flat
//     fields; the solver itself never reads Phases).
//   - configDigest folds the machine geometry and cost model.
//     MeasurementNoise and NoiseSeed are excluded: they perturb Step's
//     counter accumulation, never Solve.
//
// FNV-1a is not collision-proof, but a collision requires two distinct
// 64-bit digests to collide within one process — with at most a few
// hundred distinct models alive at once the birthday bound is ~1e-15,
// far below the simulator's own float reproducibility concerns. The
// full allocation state still enters the key verbatim (see encodeKey),
// so the search-space explosion lives in exact bits, not in the hash.

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// digestWord folds one 64-bit word into the running digest state: one
// xor-multiply round with the FNV constants, followed by a shift-xor to
// diffuse the high bits the multiply pushed up. The byte-serial FNV-1a
// form it replaces spent eight dependent multiplies per word, which made
// model re-digesting (every AddApp, every phase boundary) a visible
// slice of a fleet sweep; one round per word keeps the digest a pure
// deterministic function of the same fields at an eighth of the cost.
// Digests are process-internal (cache keys, pool keys, snapshot schema
// fingerprints) — changing the folding constants is a schema bump, not
// a correctness event.
//
//copart:noalloc
func digestWord(h, w uint64) uint64 {
	h = (h ^ w) * fnvPrime64
	return h ^ (h >> 29)
}

// modelDigest fingerprints one resolved model. Order-sensitive over the
// Hot components, exactly like the solver's traversal.
//
//copart:noalloc
func modelDigest(mo *AppModel) uint64 {
	h := uint64(fnvOffset64)
	h = digestWord(h, uint64(mo.Cores))
	h = digestWord(h, uint64(mo.Socket))
	h = digestWord(h, math.Float64bits(mo.CPIBase))
	h = digestWord(h, math.Float64bits(mo.AccPerInstr))
	h = digestWord(h, math.Float64bits(mo.StreamFrac))
	h = digestWord(h, math.Float64bits(mo.MLP))
	h = digestWord(h, uint64(len(mo.Hot)))
	for i := range mo.Hot {
		c := &mo.Hot[i]
		h = digestWord(h, math.Float64bits(c.Bytes))
		h = digestWord(h, math.Float64bits(c.Weight))
		h = digestWord(h, math.Float64bits(c.MLP))
	}
	return h
}

// configDigest fingerprints the solver-visible machine configuration.
func configDigest(c Config) uint64 {
	h := uint64(fnvOffset64)
	h = digestWord(h, uint64(c.Cores))
	h = digestWord(h, uint64(c.LLCWays))
	h = digestWord(h, math.Float64bits(c.WayBytes))
	h = digestWord(h, math.Float64bits(c.LineBytes))
	h = digestWord(h, math.Float64bits(c.FreqHz))
	h = digestWord(h, uint64(c.SocketCount()))
	h = digestWord(h, math.Float64bits(c.HitCostCycles))
	h = digestWord(h, math.Float64bits(c.MissCostCycles))
	h = digestWord(h, math.Float64bits(c.WritebackFactor))
	h = digestWord(h, math.Float64bits(c.MBALatencyK))
	h = digestWord(h, math.Float64bits(c.MBALatencyP))
	h = digestWord(h, math.Float64bits(c.BW.TotalBandwidth))
	h = digestWord(h, math.Float64bits(c.BW.PerCoreCap))
	h = digestWord(h, math.Float64bits(c.BW.CongestionK))
	h = digestWord(h, math.Float64bits(c.BW.CongestionP))
	return h
}

// encodeKey writes the exact solver fingerprint into the scratch key —
// the config digest, then per application its resolved-model digest and
// allocation pair — and hashes it once into fp. digests[i] must be
// modelDigest of the *resolved* models[i] (phases folded); Machine
// maintains these incrementally so the key costs O(apps) fixed-width
// appends.
//
//copart:noalloc
func (sc *solveScratch) encodeKey(cfgDigest uint64, digests []uint64, allocs []Alloc) {
	k := sc.key[:0]
	k = binary.LittleEndian.AppendUint64(k, cfgDigest)
	k = binary.AppendUvarint(k, uint64(len(digests)))
	for i, d := range digests {
		k = binary.LittleEndian.AppendUint64(k, d)
		// CBMs are short bit masks (a machine has a few dozen ways at
		// most), so the varint form is 1–2 bytes against 8 fixed — the
		// keys hashed and byte-compared on every solve shrink by a third.
		// Varints are prefix-free, so the encoding stays injective.
		k = binary.AppendUvarint(k, allocs[i].CBM)
		k = binary.AppendUvarint(k, uint64(allocs[i].MBALevel))
	}
	sc.key = k
	sc.fp = hashKey(k)
}

// hashKey hashes an encoded cache key to pick its shared-cache shard. It
// folds the key eight bytes at a time — FNV constants over little-endian
// words rather than bytes — because it runs once per memoized solve over
// a ~100-byte key and the byte-serial form was a visible fraction of a
// fleet period sweep. The folds leave only the low bytes of each word in
// the low bits of h, which pick the shard, so murmur3's fmix64 finalizer
// mixes every bit into them. The hash never names an entry: the shard's
// map compares the exact key bytes.
//
//copart:noalloc
func hashKey(key []byte) uint64 {
	h := uint64(fnvOffset64)
	for ; len(key) >= 8; key = key[8:] {
		w := uint64(key[0]) | uint64(key[1])<<8 | uint64(key[2])<<16 | uint64(key[3])<<24 |
			uint64(key[4])<<32 | uint64(key[5])<<40 | uint64(key[6])<<48 | uint64(key[7])<<56
		h = (h ^ w) * fnvPrime64
	}
	for _, b := range key {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
