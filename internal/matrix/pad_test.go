package matrix

import (
	"testing"
	"testing/quick"
)

func TestNextPow2(t *testing.T) {
	cases := map[int]int{
		-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8,
		7: 8, 8: 8, 9: 16, 1000: 1024, 1024: 1024, 1025: 2048,
	}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestNextPow2Property(t *testing.T) {
	f := func(v uint16) bool {
		n := int(v)
		p := NextPow2(n)
		if !IsPow2(p) || p < n {
			return false
		}
		// Minimal: p/2 < n unless p == 1.
		return p == 1 || p/2 < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsPow2Log2(t *testing.T) {
	for q := 0; q < 20; q++ {
		n := 1 << q
		if !IsPow2(n) {
			t.Fatalf("IsPow2(%d) false", n)
		}
		if Log2(n) != q {
			t.Fatalf("Log2(%d) = %d, want %d", n, Log2(n), q)
		}
	}
	for _, n := range []int{0, -1, 3, 6, 12, 100} {
		if IsPow2(n) {
			t.Fatalf("IsPow2(%d) true", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Log2(3) should panic")
		}
	}()
	Log2(3)
}

func TestPadPow2(t *testing.T) {
	a := FromRows([][]int{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	p := PadPow2(a, -1)
	if p.N() != 4 {
		t.Fatalf("padded side = %d, want 4", p.N())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if p.At(i, j) != a.At(i, j) {
				t.Fatal("original block altered")
			}
		}
	}
	if p.At(3, 3) != -1 || p.At(0, 3) != -1 || p.At(3, 0) != -1 {
		t.Fatal("padding fill wrong")
	}
	// Already power-of-two: returns an independent clone.
	b := FromRows([][]int{{1, 2}, {3, 4}})
	pb := PadPow2(b, 0)
	pb.Set(0, 0, 9)
	if b.At(0, 0) != 1 {
		t.Fatal("PadPow2 on pow2 input shares storage")
	}
}

func TestPadPow2Diag(t *testing.T) {
	a := FromRows([][]int{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	p := PadPow2Diag(a, 0, 7)
	if p.At(3, 3) != 7 {
		t.Fatalf("padded diagonal = %d, want 7", p.At(3, 3))
	}
	if p.At(3, 2) != 0 || p.At(2, 3) != 0 {
		t.Fatal("off-diagonal padding wrong")
	}
}

// TestOnPow2 checks both branches: a power-of-two (or empty) matrix is
// handed to f itself, any other side runs on a padded copy whose
// leading block lands back in the input.
func TestOnPow2(t *testing.T) {
	for _, n := range []int{0, 1, 4} {
		a := New[int](n, n)
		OnPow2(a, 0, 1, func(m *Dense[int]) {
			if m != a {
				t.Fatalf("n=%d: f got a copy, want the input itself", n)
			}
		})
	}
	a := FromRows([][]int{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	OnPow2(a, -1, 7, func(m *Dense[int]) {
		if m.N() != 4 || m.At(3, 3) != 7 || m.At(3, 0) != -1 || m.At(0, 3) != -1 {
			t.Fatalf("padded input wrong:\n%v", m)
		}
		m.Apply(func(i, j, v int) int { return v * 10 })
	})
	if want := FromRows([][]int{{10, 20, 30}, {40, 50, 60}, {70, 80, 90}}); !Equal(a, want) {
		t.Fatalf("leading block not copied back: got\n%v", a)
	}
}

func TestCropInversePad(t *testing.T) {
	f := func(side uint8, fill int) bool {
		n := int(side%13) + 1
		a := New[int](n, n)
		a.Apply(func(i, j, _ int) int { return i*100 + j })
		back := Crop(PadPow2(a, fill), n)
		return Equal(a, back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
