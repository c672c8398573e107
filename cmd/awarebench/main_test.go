package main

import "testing"

func TestRunSmallExperiments(t *testing.T) {
	// Tiny replication counts: this exercises the full wiring of every
	// experiment entry point without paper-scale cost.
	cases := []struct {
		name string
		exec func() error
	}{
		{"intro", func() error { return run("intro", 0, 1, -1, 0, 0, false) }},
		{"1a", func() error { return run("1a", 5, 1, 0.75, 0, 0, false) }},
		{"1b", func() error { return run("1b", 5, 1, 1.0, 0, 0, false) }},
		{"1c", func() error { return run("1c", 5, 1, 0.25, 0, 0, false) }},
		{"holdout", func() error { return run("holdout", 20, 1, -1, 0, 0, false) }},
		{"subsets", func() error { return run("subsets", 20, 1, -1, 0, 0, false) }},
		{"2", func() error { return run("2", 2, 1, -1, 2000, 15, false) }},
		{"2-randomized", func() error { return run("2", 2, 1, -1, 2000, 15, true) }},
		{"replay", func() error { return run("replay", 0, 1, -1, 2000, 15, false) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if err := c.exec(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
	}
	if err := run("nope", 1, 1, -1, 0, 0, false); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestNullSet(t *testing.T) {
	if got := nullSet(0.25, []float64{0.75, 1}); len(got) != 1 || got[0] != 0.25 {
		t.Errorf("explicit null set %v", got)
	}
	if got := nullSet(-1, []float64{0.75, 1}); len(got) != 2 {
		t.Errorf("default null set %v", got)
	}
}
