package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"net"
	"path/filepath"
	"strings"
	"testing"
)

func TestServeFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := runServe(nil, &out); err == nil || !strings.Contains(err.Error(), "-db") {
		t.Errorf("missing -db: %v", err)
	}
	if err := runServe([]string{"-db", filepath.Join(t.TempDir(), "nope.bpg")}, &out); err == nil {
		t.Error("expected error for a missing gallery file")
	}
	if err := runServe([]string{"-help"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("runServe(-help) = %v, want flag.ErrHelp", err)
	}
	if err := runServe([]string{"-db", "x.bpg", "-bogus"}, &out); err == nil {
		t.Error("expected flag parse error")
	}
	if err := runServe([]string{"-db", "x.bpg", "-scan", "float32"}, &out); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("serve -scan = %v, want the unknown-flag error", err)
	}
}

func TestServeReplicaFlagConflicts(t *testing.T) {
	var out bytes.Buffer
	err := runServe([]string{"-db", t.TempDir(), "-replica-of", "http://127.0.0.1:1", "-writable"}, &out)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("replica+writable: %v", err)
	}
	err = runServe([]string{"-db", filepath.Join(t.TempDir(), "rep"), "-replica-of", "not-a-url"}, &out)
	if err == nil {
		t.Error("relative primary URL accepted")
	}
}

// TestServeBindFailure drives the happy path all the way to the
// socket: a real gallery file on an occupied port prints the serving
// banner and surfaces the listen error instead of hanging on signals.
func TestServeBindFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	db := filepath.Join(t.TempDir(), "hcp.bpg")
	var out bytes.Buffer
	enroll := []string{"enroll", "-db", db, "-task", "REST1", "-encoding", "LR",
		"-scale", "small", "-subjects", "6", "-regions", "30"}
	if err := runGallery(enroll, &out); err != nil {
		t.Fatalf("enroll: %v", err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("occupying a port: %v", err)
	}
	defer l.Close()

	out.Reset()
	err = runServe([]string{"-db", db, "-addr", l.Addr().String(), "-k", "2"}, &out)
	if err == nil {
		t.Fatal("runServe on an occupied port returned nil")
	}
	banner := out.String()
	if !strings.Contains(banner, "serving gallery") || !strings.Contains(banner, "6 subjects") || !strings.Contains(banner, "scan kernel") {
		t.Errorf("banner = %q", banner)
	}
	if !strings.Contains(banner, "POST /v1/identify") {
		t.Errorf("endpoint listing missing from banner: %q", banner)
	}
}

// TestGalleryProbeEmit drives the probe emitter end to end: the emitted
// JSON must be a valid identify request for the matching cohort.
func TestGalleryProbeEmit(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke test")
	}
	var out bytes.Buffer
	args := []string{"probe", "-scale", "small", "-subjects", "6", "-regions", "30",
		"-task", "REST2", "-encoding", "RL", "-subject", "3", "-k", "2"}
	if err := runGallery(args, &out); err != nil {
		t.Fatalf("gallery probe: %v", err)
	}
	var req struct {
		ID    string    `json:"id"`
		Probe []float64 `json:"probe"`
		K     int       `json:"k"`
	}
	if err := json.Unmarshal(out.Bytes(), &req); err != nil {
		t.Fatalf("probe output is not JSON: %v\n%s", err, out.String())
	}
	if req.ID != "hcp-s003" || req.K != 2 {
		t.Errorf("probe request = id %q k %d", req.ID, req.K)
	}
	if want := 30 * 29 / 2; len(req.Probe) != want {
		t.Errorf("probe vector has %d features, want %d", len(req.Probe), want)
	}
}

func TestGalleryProbeErrors(t *testing.T) {
	var out bytes.Buffer
	if err := runGallery([]string{"probe", "-subject", "-1"}, &out); err == nil {
		t.Error("expected error for a negative subject index")
	}
	if err := runGallery([]string{"probe", "-scale", "small", "-subjects", "4", "-regions", "24", "-subject", "99"}, &out); err == nil {
		t.Error("expected error for an out-of-range subject index")
	}
}
