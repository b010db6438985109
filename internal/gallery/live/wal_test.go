package live

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"brainprint/internal/gallery"
)

// buildLiveDir creates a live directory with n enrolled subjects and
// returns its path plus the log path (engine closed).
func buildLiveDir(t *testing.T, features, n int) (string, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "live")
	e, err := Create(dir, features, nil, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	group := randomGroup(11, features, n)
	for j, id := range subjectIDs(n) {
		if err := e.Enroll(id, group.Col(j)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir, filepath.Join(dir, genName(0, "bpw"))
}

func TestTornTailTruncatedAndRecovered(t *testing.T) {
	const features, n = 8, 5
	dir, walPath := buildLiveDir(t, features, n)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// Cut the file at every offset inside the LAST record: each cut
	// simulates a crash mid-append and must recover n-1 subjects with
	// the torn bytes truncated away.
	recLen := 4 + (3 + len("s00000") + 8*features) + 4
	lastStart := len(full) - recLen
	for _, cut := range []int{lastStart + 1, lastStart + 3, lastStart + recLen/2, len(full) - 1} {
		if err := os.WriteFile(walPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut@%d: Open: %v", cut, err)
		}
		st := e.Stats()
		if e.Len() != n-1 || st.RecoveredTornBytes != int64(cut-lastStart) {
			t.Fatalf("cut@%d: len=%d torn=%d (want %d, %d)", cut, e.Len(), st.RecoveredTornBytes, n-1, cut-lastStart)
		}
		e.Close()
		// The torn bytes are physically gone: a second open is clean.
		e2, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut@%d: second Open: %v", cut, err)
		}
		if st := e2.Stats(); st.RecoveredTornBytes != 0 || e2.Len() != n-1 {
			t.Fatalf("cut@%d: second open not clean: len=%d %+v", cut, e2.Len(), st)
		}
		e2.Close()
		// Restore for the next cut.
		if err := os.WriteFile(walPath, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCorruptTailRecordRecovered(t *testing.T) {
	// A COMPLETE final record whose payload was scrambled (a lost page
	// inside the last fsync window) is recoverable exactly like an
	// incomplete one.
	const features, n = 8, 5
	dir, walPath := buildLiveDir(t, features, n)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	full[len(full)-10] ^= 0xFF // inside the last record's vector bytes
	if err := os.WriteFile(walPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open with corrupt tail record: %v", err)
	}
	defer e.Close()
	if e.Len() != n-1 || e.Stats().RecoveredTornBytes == 0 {
		t.Fatalf("len=%d stats=%+v", e.Len(), e.Stats())
	}
}

func TestInteriorCorruptionIsHardError(t *testing.T) {
	// Corruption with committed records AFTER it cannot be healed by
	// truncation — dropping the later records could resurrect deleted
	// subjects — so Open must refuse with the typed error.
	const features, n = 8, 5
	dir, walPath := buildLiveDir(t, features, n)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	recLen := 4 + (3 + len("s00000") + 8*features) + 4
	headerLen := len(full) - n*recLen
	full[headerLen+recLen+8] ^= 0xFF // inside record 1 of 5
	if err := os.WriteFile(walPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("Open with interior corruption: got %v, want ErrWALCorrupt", err)
	}
}

func TestWALHeaderErrors(t *testing.T) {
	const features, n = 8, 2
	dir, walPath := buildLiveDir(t, features, n)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, ErrWALMagic},
		{"bad version", func(b []byte) []byte { b[8] = 99; return b }, ErrWALVersion},
		{"header checksum", func(b []byte) []byte { b[13] ^= 0xFF; return b }, gallery.ErrChecksum},
		{"truncated header", func(b []byte) []byte { return b[:10] }, gallery.ErrTruncated},
	}
	for _, tc := range cases {
		buf := append([]byte(nil), full...)
		if err := os.WriteFile(walPath, tc.mutate(buf), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestWALGeometryMismatchRejected(t *testing.T) {
	// A log whose header disagrees with the base store's dimensionality
	// must not replay: pair a compacted base with a foreign log.
	const features = 8
	dir := filepath.Join(t.TempDir(), "live")
	e, err := Create(dir, features, nil, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	group := randomGroup(13, features, 3)
	for j, id := range subjectIDs(3) {
		if err := e.Enroll(id, group.Col(j)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	e.Close()

	// Overwrite generation 1's log with one declaring other dims.
	w, _, err := createWAL(filepath.Join(dir, genName(1, "bpw")), walHeader{features: features + 1}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	w.close()
	if _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, gallery.ErrDimMismatch) {
		t.Fatalf("geometry mismatch: got %v, want ErrDimMismatch", err)
	}
}

func TestCrashedCompactionOrphansSwept(t *testing.T) {
	// Files from a compaction that died before its generation switch
	// must not confuse recovery and are removed at the next Open.
	const features = 8
	dir, _ := buildLiveDir(t, features, 4)
	orphan := filepath.Join(dir, genName(1, "bpm"))
	if err := os.WriteFile(orphan, []byte("half-written manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open with orphans: %v", err)
	}
	defer e.Close()
	if e.Len() != 4 || e.Generation() != 0 {
		t.Fatalf("recovered wrong state: len=%d gen=%d", e.Len(), e.Generation())
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned next-generation manifest not swept: %v", err)
	}

	// The latest possible crash: every file of the next generation —
	// base, tail-bearing log, sidecar — is durable and only the CURRENT
	// flip is missing. The old generation recovers with every mutation
	// of the compaction window.
	t.Run("all but CURRENT written", func(t *testing.T) { abandonCompaction(t, true) })
}

// TestWALWriterPoisonsAfterFailedRollback pins the partial-append
// containment rule: when an append fails AND the rollback truncate
// cannot restore the committed end, the writer must refuse every later
// commit — appending after an unrolled partial frame would turn a
// recoverable torn tail into unrecoverable interior corruption.
func TestWALWriterPoisonsAfterFailedRollback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.bpw")
	w, _, err := createWAL(path, walHeader{features: 2}, nil, false)
	if err != nil {
		t.Fatalf("createWAL: %v", err)
	}
	// Close the handle out from under the writer: the next append's
	// write fails, and so does the rollback truncate.
	w.f.Close()
	frame := encodeWALRecord(walKindEnroll, "x", []float64{1, 2})
	if err := w.append(frame); err == nil {
		t.Fatal("append on a closed file should fail")
	}
	if w.broken == nil {
		t.Fatal("writer not poisoned after failed rollback")
	}
	if err := w.append(frame); err == nil || !errors.Is(err, w.broken) {
		t.Fatalf("poisoned writer did not refuse the next commit with its poison error: %v", err)
	}
}
