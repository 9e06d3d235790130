package main

import (
	"errors"
	"testing"

	"radiomis/internal/radio"
)

func TestRunSmallCD(t *testing.T) {
	if err := run([]string{"-algo", "cd", "-graph", "cycle", "-n", "32", "-trials", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunVerbose(t *testing.T) {
	if err := run([]string{"-algo", "beep", "-graph", "grid", "-n", "16", "-v"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunNoCDSmall(t *testing.T) {
	if err := run([]string{"-algo", "nocd", "-graph", "star", "-n", "16"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{name: "unknown algo", args: []string{"-algo", "bogus"}},
		{name: "unknown graph", args: []string{"-graph", "bogus"}},
		{name: "bad flag", args: []string{"-definitely-not-a-flag"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestSolverLookup(t *testing.T) {
	for _, name := range []string{"cd", "beep", "nocd", "lowdegree", "naive-cd", "naive-nocd", "unknown-delta"} {
		if err := checkAlgorithm(name); err != nil {
			t.Errorf("checkAlgorithm(%q): %v", name, err)
		}
	}
	if err := checkAlgorithm("nope"); err == nil {
		t.Error("unknown solver accepted")
	}
}

func TestRunWithFaults(t *testing.T) {
	if err := run([]string{"-algo", "cd", "-graph", "gnp", "-n", "48",
		"-faults", "loss=0.2,crash=0.01,restart=8", "-trials", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFaultSpec(t *testing.T) {
	for _, spec := range []string{"loss=2", "bogus=1", "loss"} {
		if err := run([]string{"-faults", spec, "-n", "8"}); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestRunTimeoutSurfacesErrAborted(t *testing.T) {
	err := run([]string{"-algo", "cd", "-graph", "gnp", "-n", "4096", "-timeout", "1ns"})
	if !errors.Is(err, radio.ErrAborted) {
		t.Fatalf("err = %v, want radio.ErrAborted", err)
	}
}
