package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestToyRunsMatchBenchmarkJSON runs every workload at toy size, traced
// and untraced, and checks that each run passes its gates and prints
// exactly the metric names BENCHMARK.json lists for its trace mode.
func TestToyRunsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "e2ebench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			out, err := exec.Command(bin, "--workload", w.Name, "--seed", "3", "--seconds", "1",
				"--trace", []string{"0", "1"}[trace], "--toy").Output()
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			var got, names []string
			for name, m := range res.Metrics {
				got = append(got, name+" "+m.Unit)
			}
			for _, m := range want {
				names = append(names, m.Name+" "+m.Unit)
			}
			sort.Strings(got)
			sort.Strings(names)
			if !slices.Equal(got, names) {
				t.Errorf("%s trace=%d: printed metrics\n%v\nBENCHMARK.json lists\n%v", w.Name, trace, got, names)
			}
		}
	}
}
