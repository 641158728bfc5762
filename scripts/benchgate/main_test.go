package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const benchText = `goos: linux
BenchmarkWritePath/vnc-4   	  100	  2000 ns/op	   0 B/op	   0 allocs/op
BenchmarkWritePath/vnc-4   	  100	  1000 ns/op	   0 B/op	   0 allocs/op
BenchmarkWritePath/vnc-4   	  100	  3000 ns/op	   0 B/op	   0 allocs/op
`

// writeReport stores rep as a JSON record and returns its path.
func writeReport(t *testing.T, name string, rep report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestEmitStampsHost(t *testing.T) {
	in := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(in, []byte(benchText), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runEmit(in, &out); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	h := rep.Host
	if h == nil || h.NumCPU != runtime.NumCPU() || h.GOMAXPROCS != runtime.GOMAXPROCS(0) || h.GoVersion != runtime.Version() {
		t.Fatalf("host stamp = %+v", h)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].NsPerOp != 2000 || rep.Benchmarks[0].Runs != 3 {
		t.Fatalf("benchmarks = %+v, want one median of 2000 ns/op over 3 runs", rep.Benchmarks)
	}
}

func TestGateRefusesCrossHostRecords(t *testing.T) {
	here := host{NumCPU: 4, GOMAXPROCS: 4, GoVersion: "go1.24.0", Commit: "a"}
	bench := []record{{Name: "BenchmarkWritePath/vnc", Runs: 3, NsPerOp: 1000}}
	other := here
	other.NumCPU, other.GOMAXPROCS = 2, 2
	cases := []struct {
		name     string
		old, new *host
		want     string
	}{
		{"different host", &here, &other, "different hosts"},
		{"baseline unstamped", nil, &here, "old.json has no host stamp"},
		{"candidate unstamped", &here, nil, "new.json has no host stamp"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			oldPath := writeReport(t, "old.json", report{Host: c.old, Benchmarks: bench})
			newPath := writeReport(t, "new.json", report{Host: c.new, Benchmarks: bench})
			ok, err := runGate(oldPath, newPath, 10)
			if ok || err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("gate = %t, %v; want a refusal mentioning %q", ok, err, c.want)
			}
		})
	}

	// Same host, different commit: the comparison the gate exists for.
	next := here
	next.Commit = "b"
	oldPath := writeReport(t, "old.json", report{Host: &here, Benchmarks: bench})
	newPath := writeReport(t, "new.json", report{Host: &next, Benchmarks: bench})
	if ok, err := runGate(oldPath, newPath, 10); !ok || err != nil {
		t.Fatalf("same-host gate = %t, %v; want pass", ok, err)
	}
}
