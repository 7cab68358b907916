package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestElectronIndexing(t *testing.T) {
	e := NewElectron(2, 3, 4, 2)
	if len(e.Data) != 2*3*4*4 {
		t.Fatalf("data length %d", len(e.Data))
	}
	// Every (ik, ie, a) block is distinct and contiguous.
	seen := make(map[int]bool)
	for ik := 0; ik < 2; ik++ {
		for ie := 0; ie < 3; ie++ {
			for a := 0; a < 4; a++ {
				o := e.Index(ik, ie, a)
				if o%e.BlockLen() != 0 {
					t.Fatal("block not aligned")
				}
				if seen[o] {
					t.Fatal("blocks overlap")
				}
				seen[o] = true
			}
		}
	}
	if len(seen) != 24 {
		t.Fatalf("expected 24 blocks, got %d", len(seen))
	}
}

func TestElectronBlockIsLiveView(t *testing.T) {
	e := NewElectron(1, 2, 2, 2)
	b := e.Block(0, 1, 1)
	b[3] = 7 + 2i
	if e.Mat(0, 1, 1).At(1, 1) != 7+2i {
		t.Fatal("Block should alias the tensor storage")
	}
}

func TestElectronMixAndClone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewElectron(2, 2, 2, 2)
	b := NewElectron(2, 2, 2, 2)
	for i := range a.Data {
		a.Data[i] = complex(rng.NormFloat64(), 0)
		b.Data[i] = complex(rng.NormFloat64(), 0)
	}
	orig := a.Clone()
	a.Mix(b, 0.25)
	for i := range a.Data {
		want := 0.25*b.Data[i] + 0.75*orig.Data[i]
		if a.Data[i] != want {
			t.Fatal("Mix arithmetic wrong")
		}
	}
	// Clone must not alias.
	orig.Data[0] = 99
	if a.Data[0] == 99 {
		t.Fatal("Clone aliases")
	}
}

func TestElectronMixFullReplacement(t *testing.T) {
	a := NewElectron(1, 1, 1, 1)
	b := NewElectron(1, 1, 1, 1)
	b.Data[0] = 5
	a.Mix(b, 1.0)
	if a.Data[0] != 5 {
		t.Fatal("mix=1 should replace")
	}
}

func TestPhononIndexing(t *testing.T) {
	p := NewPhonon(2, 3, 4, 5, 3)
	if len(p.Data) != 2*3*4*5*9 {
		t.Fatalf("data length %d", len(p.Data))
	}
	// Slot blocks within one atom are consecutive.
	if p.Index(0, 0, 0, 1)-p.Index(0, 0, 0, 0) != 9 {
		t.Fatal("slots not consecutive")
	}
	// Block view aliases storage.
	p.Block(1, 2, 3, 4)[8] = 2i
	if p.Data[p.Index(1, 2, 3, 4)+8] != 2i {
		t.Fatal("phonon Block should alias")
	}
}

func TestPhononZeroCloneMix(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewPhonon(1, 2, 2, 2, 3)
	for i := range p.Data {
		p.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	c := p.Clone()
	clear(p.Data)
	p.Mix(c, 0.5)
	for i := range p.Data {
		if p.Data[i] != 0.5*c.Data[i] {
			t.Fatal("Mix into zero tensor wrong")
		}
	}
}

func TestBytesAccounting(t *testing.T) {
	e := NewElectron(2, 3, 4, 5)
	if e.Bytes() != int64(2*3*4*25)*16 {
		t.Fatalf("electron Bytes = %d", e.Bytes())
	}
	p := NewPhonon(2, 3, 4, 5, 3)
	if p.Bytes() != int64(2*3*4*5*9)*16 {
		t.Fatalf("phonon Bytes = %d", p.Bytes())
	}
}

func TestShapeString(t *testing.T) {
	p := NewPhonon(1, 2, 3, 4, 3)
	if p.ShapeString() != "[1 2 3 4 3 3]" {
		t.Fatalf("ShapeString = %q", p.ShapeString())
	}
}

func TestIndexRoundTripProperty(t *testing.T) {
	e := NewElectron(3, 5, 7, 2)
	f := func(ik, ie, a uint8) bool {
		i, j, k := int(ik)%3, int(ie)%5, int(a)%7
		o := e.Index(i, j, k)
		// Decode the flat offset back.
		blk := o / e.BlockLen()
		return blk == (i*e.NE+j)*e.Na+k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMixShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewElectron(1, 1, 1, 1).Mix(NewElectron(1, 1, 1, 2), 0.5)
}
