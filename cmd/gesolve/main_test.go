package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"gep/internal/linalg"
)

func TestLoadSystemRandom(t *testing.T) {
	a, b, err := loadSystem(12, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 12 || len(b) != 12 {
		t.Fatalf("shape %d / %d", a.N(), len(b))
	}
	// Diagonally dominant by construction: solvable without pivoting.
	if linalg.NeedsPivoting(a, 16) {
		t.Fatal("random system needs pivoting")
	}
}

func TestLoadSystemStdin(t *testing.T) {
	// Redirect stdin through a pipe.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdin
	os.Stdin = r
	defer func() { os.Stdin = old }()
	go func() {
		w.WriteString("2\n4 1\n1 3\n5 4\n")
		w.Close()
	}()
	a, b, err := loadSystem(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 2 || a.At(0, 1) != 1 || b[1] != 4 {
		t.Fatalf("parsed wrong: %v %v", a, b)
	}
}

func TestLoadSystemErrors(t *testing.T) {
	cases := []string{"", "0\n", "-3\n", "2\n1 2 3\n", "2\n1 2\n3 4\n5\n"}
	for _, in := range cases {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		old := os.Stdin
		os.Stdin = r
		go func(s string) {
			w.WriteString(s)
			w.Close()
		}(in)
		_, _, err = loadSystem(0, 0)
		os.Stdin = old
		if err == nil {
			t.Errorf("loadSystem accepted %q", in)
		}
	}
}

// TestRunRejectsBadBase: a base size below 1 is a usage error (exit
// status 2 and a message naming the flag), never a panic from the
// factorization, for every -algo that takes a base.
func TestRunRejectsBadBase(t *testing.T) {
	for _, algo := range []string{"igep", "tiled"} {
		for _, base := range []string{"0", "-3"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-random", "8", "-algo", algo, "-base", base}, &stdout, &stderr)
			if code != 2 {
				t.Fatalf("-algo %s -base %s: exit %d, want 2", algo, base, code)
			}
			if stdout.Len() != 0 || !strings.Contains(stderr.String(), "-base must be >= 1") {
				t.Fatalf("-algo %s -base %s: stdout %q, stderr %q", algo, base, stdout.String(), stderr.String())
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-random", "8", "-base", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-base 1: exit %d, stderr %q", code, stderr.String())
	}
}

// TestRunRejectsNegativeRandom: a negative -random size is a usage
// error, not a silent read of stdin.
func TestRunRejectsNegativeRandom(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-random", "-5"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-random -5: exit %d, want 2", code)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "-random must be >= 0") {
		t.Fatalf("-random -5: stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}
