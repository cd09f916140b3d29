package linalg_test

import (
	"fmt"

	"gep/internal/linalg"
	"gep/internal/matrix"
)

func ExampleLUIGEP() {
	a := matrix.FromRows([][]float64{
		{4, 2},
		{2, 5},
	})
	linalg.LUIGEP(a, 1)
	// Packed factors: L21 = 0.5, U = [[4,2],[0,4]].
	fmt.Println(a.At(1, 0), a.At(1, 1))
	// Output: 0.5 4
}

func ExampleSolveLU() {
	a := matrix.FromRows([][]float64{
		{4, 2},
		{2, 5},
	})
	lu := a.Clone()
	linalg.LUIGEP(lu, 1)
	x := linalg.SolveLU(lu, []float64{10, 9})
	fmt.Printf("%.0f %.0f\n", x[0], x[1])
	// Output: 2 1
}

func ExampleDeterminant() {
	a := matrix.FromRows([][]float64{
		{3, 1},
		{1, 3},
	})
	fmt.Printf("%.0f\n", linalg.Determinant(a))
	// Output: 8
}

func ExampleFactor() {
	// Needs pivoting: zero leading pivot.
	a := matrix.FromRows([][]float64{
		{0, 1},
		{2, 0},
	})
	f, err := linalg.Factor(a)
	if err != nil {
		fmt.Println(err)
		return
	}
	x := f.Solve([]float64{3, 4})
	fmt.Printf("%.0f %.0f\n", x[0], x[1])
	// Output: 2 3
}

func ExampleMulFused() {
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	b := matrix.FromRows([][]float64{{5, 6}, {7, 8}})
	c := matrix.NewSquare[float64](2)
	linalg.MulFused(c, a, b, 1)
	fmt.Println(c.At(0, 0), c.At(1, 1))
	// Output: 19 50
}
