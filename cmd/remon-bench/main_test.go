package main

import (
	"bytes"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestUnknownExperimentExits2: a name outside the paper's five artifacts
// (including the removed fleet scenario) is a usage error that lists the
// valid names, and nothing runs.
func TestUnknownExperimentExits2(t *testing.T) {
	for _, name := range []string{"fleet", "bogus", ""} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-experiment", name}, &stdout, &stderr); code != 2 {
			t.Errorf("-experiment %q: exit %d, want 2", name, code)
		}
		if !strings.Contains(stderr.String(), "table1, fig3, fig4, fig5, table2, all") {
			t.Errorf("-experiment %q: stderr %q does not list the valid names", name, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-experiment %q ran something: %q", name, stdout.String())
		}
	}
}

// TestFlagSurface pins the command's options to the paper-sizing knobs.
func TestFlagSurface(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(stderr.String(), -1) {
		got = append(got, m[1])
	}
	slices.Sort(got)
	want := []string{"connections", "experiment", "iterations", "max-replicas", "quick", "requests"}
	if !slices.Equal(got, want) {
		t.Fatalf("flags = %v, want %v", got, want)
	}
}

func TestTable1Runs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "table1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "==== Table 1") || !strings.Contains(stdout.String(), "SOCKET_RW_LEVEL") {
		t.Fatalf("table1 output: %q", stdout.String())
	}
}
