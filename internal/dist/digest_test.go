package dist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/decomp"
)

// runDigest folds the physics a schedule may not change into one
// SHA-256: per iteration the bit patterns of the current and the two
// collision integrals and the tile kernel's arithmetic counters, then the
// final interface-current and atom-temperature profiles. The traffic
// counters — the kernel's BytesMoved, the exchange's SSEBytes and the
// ReduceBytes of the reduction protocol — are accounting, not physics:
// TestPhasesDigests lists the first two exactly.
func runDigest(res *Result) string {
	h := sha256.New()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f64 := func(vs ...float64) {
		u64(uint64(len(vs)))
		for _, v := range vs {
			u64(math.Float64bits(v))
		}
	}
	u64(uint64(len(res.IterTrace)))
	for _, st := range res.IterTrace {
		f64(st.Current, st.ElEnergyLoss, st.PhEnergyGain)
		for _, c := range []int64{st.SSE.MatMuls, st.SSE.Flops, st.SSE.ScalarOps} {
			u64(uint64(c))
		}
	}
	f64(res.Obs.InterfaceCurrent...)
	f64(res.Obs.AtomTemperature...)
	return hex.EncodeToString(h.Sum(nil))
}

// TestPhasesDigests keeps the deleted bulk-synchronous loop as an oracle
// without keeping its code: the physics is that of SchedulePhases at
// commit e86fe16, where it still ran dist.runRank — its own GF sweep,
// blocking exchanges and mix sweep — and the one engine that replaced it
// must reproduce it bit for bit. The mixed rows above one rank moved once
// since, when binary16 rounding began sending subnormal ties to even (the
// mixed per-iteration currents moved by at most 7.0e-11 relative). The
// digests were re-taken at commit 123552f, when the traffic counters left
// runDigest for the exact per-iteration {BytesMoved, SSEBytes} pairs
// beside them; every row then still matched its e86fe16 (or tie-fix)
// digest. The counters moved once since, when the phonon tensors stopped
// storing padding slots (the kernel and the D≷/Π≷ exchanges touch the
// 1+nb_a slots of each atom, not MaxNb+1); no digest moved with them.
// The traffic telemetry must also keep adding up: every byte the
// comm layer counted is either in an iteration's SSEBytes + ReduceBytes
// or in the epilogue's one rooted Reduce of Na·Nω + Bnum·NE + P words
// (phonon spectra, LDOS and the one decimation word of each rank).
func TestPhasesDigests(t *testing.T) {
	const iters = 3
	dev := testDevice(t)
	for _, tc := range []struct {
		ranks, ta, te       int
		fp64, mixed         string
		fp64Bytes, mixBytes [2]int64 // per iteration: {BytesMoved, SSEBytes}
	}{
		{1, 1, 1,
			"ac603da8d0b8e2cb28ea00d5e2211a2542425cb52001fcb3f3d97301433f32d4",
			"87a30845307b0eba774a7673ea40094ad6d77d3f51e4396137f56d34d8e1238a",
			[2]int64{597888, 0}, [2]int64{373680, 0}},
		{2, 1, 2,
			"699664cb35e0500b50eec2581f6c1b1eeefdcd61b5ce0e108c47257d86e854cc",
			"a1d2e9925f6320a9bfd396e96133e7ffb6cb8dca67cb55e776a425709549e7ea",
			[2]int64{1195776, 542592}, [2]int64{747360, 147456}},
		{4, 1, 4,
			"a0d8d6fbdf03ed927ad803b27e1676cad29729f1ddac36ed4f2efd93236db72f",
			"eaf9a5f69cb5c2522de83734aa0013d5ccff4831466edc3a613c87302f6ca60b",
			[2]int64{2391552, 1600128}, [2]int64{1494720, 432000}},
		{8, 1, 8,
			"4e9c85e1b9b99a32a5a03dd0c65f9bb1d53d3058ce6236615dceefc7b2c2df3a",
			"2da201c397791f7626515c69214cb64939af47b243cc99cec342ff64d70ad89f",
			[2]int64{4783104, 3658368}, [2]int64{2989440, 979776}},
		{4, 2, 2,
			"89f654b006440ab9e0dba6467f0aac128f45e017d7c36c2998b15815b33a88d0",
			"bb0160d98869853389f9823692afb74e2cdd667a8d23b44e63e990f70f231520",
			[2]int64{2391552, 1257696}, [2]int64{1494720, 345600}},
	} {
		for _, prec := range []decomp.Precision{decomp.FP64, decomp.Mixed} {
			want, wantBytes := tc.fp64, tc.fp64Bytes
			if prec == decomp.Mixed {
				want, wantBytes = tc.mixed, tc.mixBytes
			}
			tag := fmt.Sprintf("P=%d %d×%d %v", tc.ranks, tc.ta, tc.te, prec)
			opts := sched{Schedule: SchedulePhases}.forced(tc.ranks, iters)
			opts.Ta, opts.TE = tc.ta, tc.te
			opts.Precision = prec
			res := mustRun(t, tag, opts)
			if got := runDigest(res); got != want {
				t.Errorf("%s: digest %s, recorded %s", tag, got, want)
			}
			for i, st := range res.IterTrace {
				if got := [2]int64{st.SSE.BytesMoved, st.SSEBytes}; got != wantBytes {
					t.Errorf("%s iter %d: {BytesMoved, SSEBytes} = %v, recorded %v", tag, i, got, wantBytes)
				}
			}
			var telemetry int64
			for _, st := range res.IterTrace {
				telemetry += st.SSEBytes + st.ReduceBytes
			}
			p := dev.P
			epilogue := int64(tc.ranks-1) * int64(p.Na*p.Nomega+p.Bnum*p.NE+tc.ranks) * 16
			if got := res.Comm.BytesSent - epilogue; got != telemetry {
				t.Errorf("%s: iterations account for %d bytes, comm layer measured %d outside the epilogue",
					tag, telemetry, got)
			}
		}
	}
}
