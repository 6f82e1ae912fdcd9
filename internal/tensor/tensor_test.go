package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// transpose is a reference implementation for property tests.
func transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

func randMat(r, c int, seed int64) *Matrix {
	return Randn(r, c, 1, rand.New(rand.NewSource(seed)))
}

// TestMatMulIdentity checks A @ I == A.
func TestMatMulIdentity(t *testing.T) {
	a := randMat(3, 4, 1)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	if !Equal(MatMul(a, id), a) {
		t.Fatal("A @ I != A")
	}
}

// TestFusedTransposeForms property-checks the backward-pass kernels
// against explicit transposition: MatMulBT(a,b) == a @ bT and
// MatMulAT(a,b) == aT @ b.
func TestFusedTransposeForms(t *testing.T) {
	check := func(seed int64, mR, kR, nR uint8) bool {
		m, k, n := int(mR%5)+1, int(kR%5)+1, int(nR%5)+1
		a := randMat(m, k, seed)
		b := randMat(n, k, seed+1) // for BT: a(m,k) @ b(n,k)T -> (m,n)
		c := randMat(m, n, seed+2) // for AT: a(m,k)T @ c(m,n) -> (k,n)
		bt := MatMulBT(a, b)
		want := MatMul(a, transpose(b))
		if MaxAbsDiff(bt, want) > 1e-12 {
			return false
		}
		at := MatMulAT(a, c)
		want2 := MatMul(transpose(a), c)
		return MaxAbsDiff(at, want2) <= 1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAddSubScale checks basic element-wise algebra.
func TestAddSubScale(t *testing.T) {
	a := randMat(3, 3, 5)
	b := randMat(3, 3, 6)
	sum := a.Clone()
	AddInPlace(sum, b)
	if MaxAbsDiff(Sub(sum, b), a) > 1e-15 {
		t.Fatal("(a+b)-b != a")
	}
	twice := a.Clone()
	AddInPlace(twice, a)
	if MaxAbsDiff(Scale(a, 2), twice) > 1e-15 {
		t.Fatal("2a != a+a")
	}
}

// TestColSumsAndRowVector checks the bias-path helpers.
func TestColSumsAndRowVector(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	sums := ColSums(a)
	for j, want := range []float64{5, 7, 9} {
		if sums.At(0, j) != want {
			t.Fatalf("colsum[%d] = %v, want %v", j, sums.At(0, j), want)
		}
	}
	v := &Matrix{Rows: 1, Cols: 3, Data: []float64{10, 20, 30}}
	got := AddRowVector(a, v)
	if got.At(1, 2) != 36 {
		t.Fatalf("AddRowVector wrong: %v", got.Data)
	}
}

// TestHadamardAndApply checks element-wise ops.
func TestHadamardAndApply(t *testing.T) {
	a := &Matrix{Rows: 1, Cols: 3, Data: []float64{1, -2, 3}}
	b := &Matrix{Rows: 1, Cols: 3, Data: []float64{2, 2, 2}}
	if h := Hadamard(a, b); h.Data[1] != -4 {
		t.Fatalf("hadamard wrong: %v", h.Data)
	}
	sq := Apply(a, func(v float64) float64 { return v * v })
	if sq.Data[1] != 4 {
		t.Fatalf("apply wrong: %v", sq.Data)
	}
}

// TestCloneIndependence checks deep copies.
func TestCloneIndependence(t *testing.T) {
	a := randMat(2, 2, 9)
	b := a.Clone()
	b.Data[0] = 999
	if a.Data[0] == 999 {
		t.Fatal("clone shares storage")
	}
}

// TestShapeMismatchPanics checks defensive shape validation.
func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MatMul(randMat(2, 3, 1), randMat(2, 3, 2))
}
