package dist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
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
// must reproduce them bit for bit. The traffic telemetry must also keep
// adding up: every byte the comm layer counted is either in an
// iteration's SSEBytes + ReduceBytes or in the epilogue's rooted Reduce
// and Gather.
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
			"f593c4a3f402689e6cfc83836a5bcd8f7c3af8315e8e4edffc9ff204e47082d0"},
		{4, 1, 4,
			"fa8d22c2d1a6f48b705d521f160fc2d24089c46b6482f8077b2fb5f559dea5b7",
			"5d7c4998e1ed06e399f2e0f24042e6dca68bf164e85bc95c93ed8c97a74f4f45"},
		{8, 1, 8,
			"84e439bf9699da5c2ef75a54548c92a5341c6f587b154862b4753af1dc5dde50",
			"384673f0a4cfd4fda0d5066d88259da71cc69ceabc21ebe4202f5b07102d52e6"},
		{4, 2, 2,
			"6b6e3aa83ae7d5d93a64870f4c3e1e22ac564cd565e1d3c30843506cf6f3fffb",
			"dd69f857f3768ad0debc7df44e57c769b8679981e7896e6a00a39965114c754a"},
	} {
		for _, prec := range []Precision{PrecisionFP64, PrecisionMixed} {
			want := tc.fp64
			if prec == PrecisionMixed {
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
			epilogue := int64(tc.ranks-1) * int64(p.Na*p.Nomega+3) * 16
			if got := res.Comm.BytesSent - epilogue; got != telemetry {
				t.Errorf("%s: iterations account for %d bytes, comm layer measured %d outside the epilogue",
					tag, telemetry, got)
			}
		}
	}
}
