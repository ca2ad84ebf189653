package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pckpt/internal/metrics"
)

// TestMain doubles the test binary as the pckpt-sim CLI: when re-exec'd
// with PCKPT_SIM_RUN_MAIN=1 it parses PCKPT_SIM_ARGS (0x1f-separated)
// and runs main() instead of the test suite, so the CLI tests below
// exercise the real flag parsing, guards, and exit codes end to end
// without a separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("PCKPT_SIM_RUN_MAIN") == "1" {
		os.Args = append([]string{"pckpt-sim"}, strings.Split(os.Getenv("PCKPT_SIM_ARGS"), "\x1f")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI re-execs the test binary as the CLI and captures its output
// and exit code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"PCKPT_SIM_RUN_MAIN=1",
		"PCKPT_SIM_ARGS="+strings.Join(args, "\x1f"))
	var out, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errBuf
	err = cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("re-exec failed: %v", err)
	}
	return out.String(), errBuf.String(), code
}

const specPath = "../../examples/scenarios/chimera-titan.json"

// TestCLIDefaultTierIsStep: a p-ckpt model runs on the step tier — the
// only engine the CLI drives since the episode port.
func TestCLIDefaultTierIsStep(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-model", "P1", "-runs", "2", "-baseline=false")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "(step tier") {
		t.Errorf("default run not on the step tier:\n%s", stdout)
	}
}

// TestCLIStepTraceEpisodeModel: -trace works on the step tier for an
// episode model (the path Validate used to reject).
func TestCLIStepTraceEpisodeModel(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-model", "P2", "-runs", "1", "-baseline=false", "-trace")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "single-run timeline") {
		t.Errorf("-trace printed no timeline:\n%s", stdout)
	}
}

// TestCLIMetricsDefaultPath: -metrics meters the default step-tier run
// — no tier switch, no refusal — writes a snapshot under the shared
// sim.<model>.* series, and leaves the overhead table exactly as the
// unmetered run prints it (metering appends its summary after).
func TestCLIMetricsDefaultPath(t *testing.T) {
	args := []string{"-app", "POP", "-model", "P1", "-runs", "4", "-baseline=false"}
	plain, stderr, code := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("unmetered: exit %d, stderr: %s", code, stderr)
	}
	out := filepath.Join(t.TempDir(), "m.json")
	metered, stderr, code := runCLI(t, append(args, "-metrics", "-metrics-out", out)...)
	if code != 0 {
		t.Fatalf("metered: exit %d, stderr: %s", code, stderr)
	}
	if !strings.HasPrefix(metered, plain) {
		t.Errorf("metered run printed a different overhead table:\n--- unmetered\n%s\n--- metered\n%s", plain, metered)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("metrics snapshot not written: %v", err)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics snapshot unreadable: %v", err)
	}
	if snap.Histograms["sim.P1.bb_write_seconds"].Count == 0 {
		t.Errorf("snapshot lacks sim.P1.* series: %d histograms", len(snap.Histograms))
	}
}

// TestCLISpecRunsOnStepTier: spec mode runs the full grid on the step
// tier.
func TestCLISpecRunsOnStepTier(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-spec", specPath, "-runs", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "2 configurations (2 runs each") {
		t.Errorf("spec grid header missing:\n%s", stdout)
	}
}

// TestCLISpecFlagPrecedence pins the PR 6 precedence contract at the
// CLI level: a conflicting selector errors, while an explicitly set
// numeric flag narrows the spec's plan.
func TestCLISpecFlagPrecedence(t *testing.T) {
	_, stderr, code := runCLI(t, "-spec", specPath, "-app", "CHIMERA")
	if code != 2 || !strings.Contains(stderr, "conflicts with -spec") {
		t.Errorf("-app with -spec: exit %d, stderr %q; want conflict error", code, stderr)
	}
	stdout, stderr, code := runCLI(t, "-spec", specPath, "-model", "M2", "-runs", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "1 configurations (2 runs each") || !strings.Contains(stdout, "M2") {
		t.Errorf("-model override did not narrow the grid:\n%s", stdout)
	}
}
