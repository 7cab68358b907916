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

// runDigest folds everything a schedule may not change into one SHA-256:
// per iteration the bit patterns of the current and the two collision
// integrals, the tile kernel's counters and the SSE exchange bytes, then
// the final interface-current and atom-temperature profiles.
// ReduceBytes is deliberately left out — it is accounting of the
// reduction protocol, not of the physics.
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
		for _, c := range []int64{st.SSE.MatMuls, st.SSE.Flops, st.SSE.ScalarOps, st.SSE.BytesMoved, st.SSEBytes} {
			u64(uint64(c))
		}
	}
	f64(res.Obs.InterfaceCurrent...)
	f64(res.Obs.AtomTemperature...)
	return hex.EncodeToString(h.Sum(nil))
}

// TestPhasesDigests keeps the deleted bulk-synchronous loop as an oracle
// without keeping its code: the digests are those of SchedulePhases at
// commit e86fe16, where it still ran dist.runRank — its own GF sweep,
// blocking exchanges and mix sweep — and the one engine that replaced it
// must reproduce them bit for bit. The mixed digests above one rank were
// re-taken once since, when binary16 rounding began sending subnormal
// ties to even (the mixed per-iteration currents moved by at most 7.0e-11
// relative); the fp64 digests are e86fe16's. The traffic telemetry must
// also keep adding up: every byte the comm layer counted is either in an
// iteration's SSEBytes + ReduceBytes or in the epilogue's one rooted
// Reduce of Na·Nω + Bnum·NE + P words (phonon spectra, LDOS and the one
// decimation word of each rank).
func TestPhasesDigests(t *testing.T) {
	const iters = 3
	dev := testDevice(t)
	for _, tc := range []struct {
		ranks, ta, te int
		fp64, mixed   string
	}{
		{1, 1, 1,
			"d65910abd60ccf7896188cbda3033959a8c476cd2733b91654cac6cba2f1c144",
			"2048042dc66e4ffa87515ddf7afc43a5677fffb3d9db7fb83342d9e7383fed0c"},
		{2, 1, 2,
			"172cbf94f8792169f06a3bdd32b027b3dc81730fef7ed6a0e501530554dce48c",
			"d5c9808ffc14c6a214f07b7400b569136bbbb41dcc618e3c424c99b2082a852e"},
		{4, 1, 4,
			"fa8d22c2d1a6f48b705d521f160fc2d24089c46b6482f8077b2fb5f559dea5b7",
			"a109577ba818a5662144ed4b421a21b0a5bee6690f09c914b99be48bdc2de8b6"},
		{8, 1, 8,
			"84e439bf9699da5c2ef75a54548c92a5341c6f587b154862b4753af1dc5dde50",
			"d7f62ac82b91e18a99cc8cb431fca76059b828361bb94ac76432c9fb1f90f5d7"},
		{4, 2, 2,
			"6b6e3aa83ae7d5d93a64870f4c3e1e22ac564cd565e1d3c30843506cf6f3fffb",
			"ec24948fc7240843f9e99acf406bfe51d45683a222d6630d2d14a7bf61817917"},
	} {
		for _, prec := range []decomp.Precision{decomp.FP64, decomp.Mixed} {
			want := tc.fp64
			if prec == decomp.Mixed {
				want = tc.mixed
			}
			tag := fmt.Sprintf("P=%d %d×%d %v", tc.ranks, tc.ta, tc.te, prec)
			opts := sched{Schedule: SchedulePhases}.forced(tc.ranks, iters)
			opts.Ta, opts.TE = tc.ta, tc.te
			opts.Precision = prec
			res := mustRun(t, tag, opts)
			if got := runDigest(res); got != want {
				t.Errorf("%s: digest %s, recorded %s", tag, got, want)
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
