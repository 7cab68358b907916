package dist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"repro/internal/device"
	"repro/internal/sse"
)

// TestPackLenMatchesVecLen pins the pack/vecLen contract for a spread of
// device shapes: the packed observable vector must come out at exactly
// vecLen entries — the wire length 6 scalars + three (Bnum−1) profiles +
// Bnum + NE + 4 counters + 4 control words the walker has to reproduce —
// and, the regression of the capacity-hint bug, must be built in one
// allocation.
func TestPackLenMatchesVecLen(t *testing.T) {
	params := []device.Params{
		{Bnum: 2, NE: 1},
		{Bnum: 3, NE: 8},
		{Bnum: 4, NE: 16},
		{Bnum: 7, NE: 33},
		{Bnum: 152, NE: 650}, // paper-scale shape
	}
	for _, p := range params {
		po := &partialObs{}
		po.flag, po.sseB, po.redB, po.fbk = 1, 2, 3, 4
		po.sse = sse.Stats{MatMuls: 4, Flops: 5, ScalarOps: 6, BytesMoved: 7}
		v := po.pack(p)
		want := 6 + 3*(p.Bnum-1) + p.Bnum + p.NE + 4 + 4
		if vecLen(p) != want {
			t.Errorf("Bnum=%d NE=%d: vecLen = %d, want the wire length %d", p.Bnum, p.NE, vecLen(p), want)
		}
		if len(v) != vecLen(p) {
			t.Errorf("Bnum=%d NE=%d: len(pack()) = %d, want vecLen = %d",
				p.Bnum, p.NE, len(v), vecLen(p))
		}
		if cap(v) != vecLen(p) {
			t.Errorf("Bnum=%d NE=%d: cap(pack()) = %d, want exactly vecLen = %d (capacity hint must cover the control words)",
				p.Bnum, p.NE, cap(v), vecLen(p))
		}
	}
}

// populatedPartial fills every reduced field with a distinct value.
func populatedPartial(p device.Params) *partialObs {
	po := &partialObs{}
	po.Reset(p)
	po.CurrentL, po.CurrentR = 1.5, -2.5
	po.EnergyCurrentL, po.PhononEnergyCurrentL = 3.25, 4.75
	po.ElectronEnergyLoss, po.PhononEnergyGain = -0.125, 0.375
	for i := range po.InterfaceCurrent {
		po.InterfaceCurrent[i] = float64(i) + 0.1
		po.InterfaceEnergyCurrent[i] = float64(i) + 0.2
		po.PhononInterfaceEnergy[i] = float64(i) + 0.3
	}
	for i := range po.DissipatedPower {
		po.DissipatedPower[i] = float64(i) - 0.4
	}
	for i := range po.SpectralCurrent {
		po.SpectralCurrent[i] = float64(i) * 0.5
	}
	po.sse = sse.Stats{MatMuls: 11, Flops: 22, ScalarOps: 33, BytesMoved: 44}
	po.flag, po.sseB, po.redB, po.fbk = 1, 1024, 2048, 17
	return po
}

// TestPackUnpackRoundTrip checks that every reduced field — including the
// control words the capacity bug clipped out of the hint — survives
// pack/unpack, and that what is not on the wire arrives empty.
func TestPackUnpackRoundTrip(t *testing.T) {
	p := device.Params{Bnum: 3, NE: 5, Na: 2, Nomega: 2}
	po := populatedPartial(p)
	po.LDOS[1][2], po.PhononDOS[1][1] = 9, 9
	got := unpackObs(po.pack(p), p)
	if got.LDOS != nil || got.PhononDOS != nil || got.PhononOcc != nil || got.AtomTemperature != nil {
		t.Errorf("off-wire fields must stay nil after unpack: %+v", got.Observables)
	}
	po.LDOS, po.PhononDOS, po.PhononOcc = nil, nil, nil
	if !reflect.DeepEqual(got, po) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, po)
	}
}

// TestPackWireDigest pins the wire order of the reduction vector bit for
// bit: the digest is the SHA-256 of the packed vector of the same
// populated partial at commit bd65bb6, where vecLen, pack and unpackObs
// each listed the fields by hand.
func TestPackWireDigest(t *testing.T) {
	v := populatedPartial(device.Params{Bnum: 3, NE: 5}).pack(device.Params{Bnum: 3, NE: 5})
	h := sha256.New()
	var b [16]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(x)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(x)))
		h.Write(b[:])
	}
	const want = "30c5ebba0bba108f0298cb318e75dd3d0754e5f2d220b4960393e219c109cbca"
	if got := hex.EncodeToString(h.Sum(nil)); got != want || len(v) != 28 {
		t.Errorf("packed vector: digest %s (len %d), want %s (len 28)", got, len(v), want)
	}
}
