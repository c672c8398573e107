package multcomp

import (
	"errors"
	"testing"
)

func TestSequentialFDRRejectsPrefix(t *testing.T) {
	// Small p-values first: the running average of -log(1-p) stays below
	// alpha for a prefix and then crosses it.
	p := []float64{0.001, 0.002, 0.01, 0.5, 0.6, 0.001}
	rej, err := SequentialFDR{}.Apply(p, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Decisions must form a prefix: once false, always false afterwards.
	seenFalse := false
	for i, r := range rej {
		if !r {
			seenFalse = true
		}
		if seenFalse && r {
			t.Errorf("SeqFDR decisions are not a prefix at %d: %v", i, rej)
		}
	}
	if !rej[0] || !rej[1] {
		t.Errorf("SeqFDR should reject the early small p-values: %v", rej)
	}
	if rej[5] {
		t.Error("SeqFDR must not reject a late hypothesis after the stop point, even with small p")
	}
}

func TestSequentialFDROrderSensitivity(t *testing.T) {
	// The paper's criticism: a large p-value early in the stream destroys
	// later rejections even if they are tiny.
	early := []float64{0.9, 0.0001, 0.0001, 0.0001}
	late := []float64{0.0001, 0.0001, 0.0001, 0.9}
	rejEarly, _ := SequentialFDR{}.Apply(early, 0.05)
	rejLate, _ := SequentialFDR{}.Apply(late, 0.05)
	if countTrue(rejEarly) != 0 {
		t.Errorf("large leading p-value should block rejections, got %v", rejEarly)
	}
	if countTrue(rejLate) != 3 {
		t.Errorf("same p-values in a friendly order should yield 3 rejections, got %v", rejLate)
	}
}

func TestSequentialFDRHandlesPEqualOne(t *testing.T) {
	p := []float64{0.001, 1.0, 0.001}
	rej, err := SequentialFDR{}.Apply(p, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !rej[0] || rej[1] || rej[2] {
		t.Errorf("unexpected decisions %v", rej)
	}
}

// TestSequentialFDRCanOverturnAcceptances documents the non-interactive
// behaviour the paper contrasts with α-investing: hypothesis 2 is accepted
// after two arrivals, then flipped to rejected when two more arrive.
func TestSequentialFDRCanOverturnAcceptances(t *testing.T) {
	p := []float64{0.01, 0.25, 0.0001, 0.0001}
	early, err := SequentialFDR{}.Apply(p[:2], 0.10) // running avg now > alpha
	if err != nil {
		t.Fatal(err)
	}
	if early[1] {
		t.Fatalf("hypothesis 2 should initially be accepted: %v", early)
	}
	late, err := SequentialFDR{}.Apply(p, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !late[1] {
		t.Fatalf("hypothesis 2 should have been overturned to rejected: %v", late)
	}
}

func TestEvaluateMetrics(t *testing.T) {
	rejections := []bool{true, true, false, false, true}
	trueNull := []bool{false, true, false, true, false}
	o, err := Evaluate(rejections, trueNull)
	if err != nil {
		t.Fatal(err)
	}
	if o.Discoveries != 3 || o.FalseDiscoveries != 1 || o.TrueDiscoveries != 2 {
		t.Errorf("outcome %+v", o)
	}
	if o.MissedDiscoveries != 1 || o.TrueNulls != 2 {
		t.Errorf("outcome %+v", o)
	}
	if o.FDP() != 1.0/3.0 {
		t.Errorf("FDP = %v", o.FDP())
	}
	if o.Power() != 2.0/3.0 {
		t.Errorf("Power = %v", o.Power())
	}
	if !o.AnyFalseDiscovery() {
		t.Error("AnyFalseDiscovery should be true")
	}
	if _, err := Evaluate(rejections, trueNull[:2]); !errors.Is(err, ErrMismatchedLengths) {
		t.Error("expected length error")
	}
}

func TestEvaluateEdgeCases(t *testing.T) {
	// No discoveries: FDP is 0 by convention.
	o, _ := Evaluate([]bool{false, false}, []bool{true, false})
	if o.FDP() != 0 {
		t.Errorf("FDP with no discoveries = %v", o.FDP())
	}
	// All true nulls: power is NaN.
	o, _ = Evaluate([]bool{false, true}, []bool{true, true})
	if p := o.Power(); p == p { // NaN check
		t.Errorf("power should be NaN under complete null, got %v", p)
	}
}

func TestSummarize(t *testing.T) {
	outcomes := []Outcome{
		{Tests: 4, Discoveries: 2, FalseDiscoveries: 1, TrueDiscoveries: 1, MissedDiscoveries: 1, TrueNulls: 2},
		{Tests: 4, Discoveries: 0, TrueNulls: 2, MissedDiscoveries: 2},
	}
	agg := Summarize(outcomes)
	if agg.Replications != 2 {
		t.Errorf("Replications = %d", agg.Replications)
	}
	if agg.AvgDiscoveries != 1 {
		t.Errorf("AvgDiscoveries = %v", agg.AvgDiscoveries)
	}
	if agg.AvgFDR != 0.25 {
		t.Errorf("AvgFDR = %v", agg.AvgFDR)
	}
	if agg.AvgPower != 0.25 {
		t.Errorf("AvgPower = %v", agg.AvgPower)
	}
	if agg.FWER != 0.5 {
		t.Errorf("FWER = %v", agg.FWER)
	}
	empty := Summarize(nil)
	if empty.Replications != 0 {
		t.Error("empty summarize should have zero replications")
	}
}

func TestMarginalFDR(t *testing.T) {
	outcomes := []Outcome{
		{Discoveries: 4, FalseDiscoveries: 1},
		{Discoveries: 2, FalseDiscoveries: 0},
	}
	got := MarginalFDR(outcomes, 1)
	want := (0.5) / (3 + 1)
	if got != want {
		t.Errorf("MarginalFDR = %v, want %v", got, want)
	}
	if MarginalFDR(nil, 1) != 0 {
		t.Error("empty MarginalFDR should be 0")
	}
}
