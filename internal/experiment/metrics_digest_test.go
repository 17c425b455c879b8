package experiment

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Pinned sha256 digests of the metrics CSV two small runs export. They
// were taken while the ledger still kept every dead owner, so they pin
// that folding dead owners into their group totals changes no byte.
const (
	metricsDigestAccounting = "a32c31361b40e1b363beb5c49cf63ab60ba0cb367fc337ae56f8a3c79b4ac136"
	metricsDigestCGIPD      = "1830cf3831e23f4ed87edeb1bef5b171af112df7291abcc00e031baeccce6219"
)

// runMetricsCSV runs cfg for 2 simulated seconds in 10 ms steps (one
// metrics tick each) with the metrics CSV on, after setup attaches the
// workload. It returns the closed testbed and the CSV's sha256.
func runMetricsCSV(t *testing.T, cfg Config, setup func(*Testbed)) (*Testbed, string) {
	t.Helper()
	var csv bytes.Buffer
	tb, err := NewTestbed(cfg, Options{Obs: &obs.Config{MetricsCSV: &csv}})
	if err != nil {
		t.Fatal(err)
	}
	setup(tb)
	for i := 0; i < 200; i++ {
		tb.RunFor(10 * sim.CyclesPerMillisecond)
	}
	tb.Close()
	if tb.TotalCompleted() == 0 {
		t.Fatal("no request completed")
	}
	return tb, fmt.Sprintf("%x", sha256.Sum256(csv.Bytes()))
}

// TestMetricsCSVDigest pins, byte for byte, the metrics CSV of a
// best-effort run and of a protection-domain run whose CGI attackers
// bring path kills and domain crossings.
func TestMetricsCSVDigest(t *testing.T) {
	_, got := runMetricsCSV(t, ConfigAccounting, func(tb *Testbed) {
		tb.AddClients(16, Doc1B.Name)
	})
	if got != metricsDigestAccounting {
		t.Errorf("Accounting metrics CSV digest = %s, want %s", got, metricsDigestAccounting)
	}
	tb, got := runMetricsCSV(t, ConfigAccountingPD, func(tb *Testbed) {
		tb.AddClients(8, Doc1B.Name)
		tb.AddCGIAttackers(2)
	})
	if tb.Escort.Contain.Kills == 0 {
		t.Error("Accounting_PD CGI run killed no path")
	}
	if got != metricsDigestCGIPD {
		t.Errorf("Accounting_PD CGI metrics CSV digest = %s, want %s", got, metricsDigestCGIPD)
	}
}
