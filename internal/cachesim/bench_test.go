package cachesim

import "testing"

func BenchmarkAccessSetAssociative(b *testing.B) {
	c := New("b", 512<<10, 64, 8)
	for i := 0; i < b.N; i++ {
		c.Access(int64(i*64) & (1<<22 - 1))
	}
}

func BenchmarkAccessFullyAssociative(b *testing.B) {
	c := New("b", 512<<10, 64, 0)
	for i := 0; i < b.N; i++ {
		c.Access(int64(i*64) & (1<<22 - 1))
	}
}

func BenchmarkSimulateOptimal(b *testing.B) {
	trace := make([]int64, 1<<15)
	for i := range trace {
		trace[i] = int64(i) * 2654435761 & (1<<16 - 1) &^ 63
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SimulateOptimal(trace, 4096, 64)
	}
}
