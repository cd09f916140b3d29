package main

import "testing"

func TestParsePair(t *testing.T) {
	u, v, err := parsePair("3,17", 20)
	if err != nil || u != 3 || v != 17 {
		t.Fatalf("parsePair = %d,%d,%v", u, v, err)
	}
	// Malformed pairs, then vertices outside a 10-vertex graph and any
	// vertex of an empty one.
	for _, bad := range []string{"", "3", "3,4,5", "a,b", "3,", "0,99", "-1,2", "2,10"} {
		if _, _, err := parsePair(bad, 10); err == nil {
			t.Errorf("parsePair(%q) accepted", bad)
		}
	}
	if _, _, err := parsePair("0,0", 0); err == nil {
		t.Error("parsePair accepted a vertex of an empty graph")
	}
}

func TestLoadGraphRandom(t *testing.T) {
	g, err := loadGraph("10,0.5,20", 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 10 {
		t.Fatalf("n = %d", g.N)
	}
	// Deterministic for a fixed seed.
	g2, _ := loadGraph("10,0.5,20", 1)
	if g2.Edges() != g.Edges() {
		t.Fatal("random graph not deterministic for fixed seed")
	}
	for _, bad := range []string{"10", "10,0.5", "x,0.5,20", "10,y,20", "10,0.5,z", "10,0.5,0", "-3,0.5,5"} {
		if _, err := loadGraph(bad, 1); err == nil {
			t.Errorf("loadGraph(%q) accepted", bad)
		}
	}
}
