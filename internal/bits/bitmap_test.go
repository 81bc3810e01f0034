package bits

import (
	"testing"
	"testing/quick"
)

func TestBitmapBasic(t *testing.T) {
	b := NewBitmap(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	for _, i := range []int64{0, 1, 63, 64, 65, 129} {
		if b.Get(i) {
			t.Errorf("bit %d set in fresh bitmap", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	if b.Count() != 6 {
		t.Errorf("Count = %d, want 6", b.Count())
	}
	b.Clear(64)
	if b.Get(64) {
		t.Error("bit 64 still set after Clear")
	}
	b.Reset()
	if b.Count() != 0 {
		t.Errorf("Count after Reset = %d", b.Count())
	}
}

func TestBitmapTestAndSet(t *testing.T) {
	b := NewBitmap(100)
	if !b.TestAndSet(42) {
		t.Error("first TestAndSet returned false")
	}
	if b.TestAndSet(42) {
		t.Error("second TestAndSet returned true")
	}
}

func TestBitmapProperty(t *testing.T) {
	check := func(idxs []uint16) bool {
		b := NewBitmap(1 << 16)
		ref := make(map[int64]bool)
		for _, i := range idxs {
			b.Set(int64(i))
			ref[int64(i)] = true
		}
		if b.Count() != int64(len(ref)) {
			return false
		}
		for i := range ref {
			if !b.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBitmap(-1) did not panic")
		}
	}()
	NewBitmap(-1)
}
