package live

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"brainprint/internal/gallery"
)

// TestSeqMonotonicAcrossCompactionAndReopen pins the sequence-number
// contract: every committed mutation advances Seq by one, a compaction
// renumbers the generation's window (BaseSeq) but never Seq itself,
// and both survive a close/reopen via the sequence sidecar.
func TestSeqMonotonicAcrossCompactionAndReopen(t *testing.T) {
	const features = 12
	dir := filepath.Join(t.TempDir(), "live")
	e, err := Create(dir, features, nil, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	group := randomGroup(3, features, 10)
	ids := subjectIDs(10)
	for j := 0; j < 8; j++ {
		if err := e.Enroll(ids[j], group.Col(j)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	if err := e.Delete(ids[1]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	st := e.Stats()
	if st.Seq != 9 || st.BaseSeq != 0 {
		t.Fatalf("pre-compaction: Seq=%d BaseSeq=%d, want 9, 0", st.Seq, st.BaseSeq)
	}
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st = e.Stats()
	if st.Seq != 9 {
		t.Fatalf("compaction changed Seq: %d, want 9", st.Seq)
	}
	if st.BaseSeq != 9 || st.WALRecords != 0 {
		t.Fatalf("post-compaction: BaseSeq=%d WALRecords=%d, want 9, 0", st.BaseSeq, st.WALRecords)
	}
	rs := e.ReplicationState()
	if rs.BaseSeq != 9 || rs.Seq != 9 {
		t.Fatalf("ReplicationState after compaction: %+v", rs)
	}
	// Two more mutations, then reopen: the sidecar must restore the
	// origin so Seq continues from 11, not from the local record count.
	if err := e.Enroll(ids[8], group.Col(8)); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if err := e.Enroll(ids[9], group.Col(9)); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	e, err = Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer e.Close()
	st = e.Stats()
	if st.Seq != 11 || st.BaseSeq != 9 {
		t.Fatalf("after reopen: Seq=%d BaseSeq=%d, want 11, 9", st.Seq, st.BaseSeq)
	}
}

// TestSeqLegacyDirectory pins the refusal of directories written
// before sequence numbering: a generation without a sidecar does not
// open at origin zero; Open fails and names the missing file.
func TestSeqLegacyDirectory(t *testing.T) {
	const features = 8
	dir := filepath.Join(t.TempDir(), "live")
	e, err := Create(dir, features, nil, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	group := randomGroup(4, features, 3)
	for j, id := range subjectIDs(3) {
		if err := e.Enroll(id, group.Col(j)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, seqName(0))); err != nil {
		t.Fatalf("removing sidecar: %v", err)
	}
	assertOpenRefused(t, dir, "live.g0000.seq")
}

// TestSeqLegacyRetoldSidecar pins the refusal of the retired two-number
// sidecar, "<baseSeq> <retoldSeq>", written when compaction retold the
// log tail: Open fails naming the file rather than honouring either
// number, and the one-number form reopens the same directory.
func TestSeqLegacyRetoldSidecar(t *testing.T) {
	dir, sidecar, want := compactedSeqDir(t)
	if err := os.WriteFile(sidecar, []byte("5 7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	assertOpenRefused(t, dir, "live.g0001.seq")
	assertReopensAt5To8(t, dir, sidecar, want)
}

// TestSeqSidecarMustBeOneInteger pins the sequence sidecar's one form,
// "<baseSeq>\n": Open refuses a current generation whose sidecar holds
// anything else, naming the file. The well-formed sidecar reopens at
// the same window and ranking.
func TestSeqSidecarMustBeOneInteger(t *testing.T) {
	dir, sidecar, want := compactedSeqDir(t)
	for _, tc := range []struct {
		name    string
		content string
	}{
		{"empty", ""},
		{"not a number", "x\n"},
		{"negative", "-1\n"},
		{"two lines", "5\n7\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(sidecar, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			assertOpenRefused(t, dir, "live.g0001.seq")
		})
	}
	assertReopensAt5To8(t, dir, sidecar, want)
}

// compactedSeqDir builds a closed live directory whose current
// generation 1 starts at sequence 5 and holds 3 WAL records, checks
// its sidecar reads "5\n", and returns the directory, the sidecar path
// and the engine's ranking before close.
func compactedSeqDir(t *testing.T) (dir, sidecar string, want []gallery.Candidate) {
	t.Helper()
	const features = 8
	dir = filepath.Join(t.TempDir(), "live")
	e, err := Create(dir, features, nil, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	group := randomGroup(4, features, 8)
	ids := subjectIDs(8)
	for j := 0; j < 5; j++ {
		if err := e.Enroll(ids[j], group.Col(j)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	for j := 5; j < 8; j++ {
		if err := e.Enroll(ids[j], group.Col(j)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	want = snapshotRanked(t, e)
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	sidecar = filepath.Join(dir, seqName(1))
	if got := string(mustReadFile(t, sidecar)); got != "5\n" {
		t.Fatalf("sidecar = %q, want \"5\\n\"", got)
	}
	return dir, sidecar, want
}

// assertOpenRefused requires Open to fail with an error naming file.
func assertOpenRefused(t *testing.T, dir, file string) {
	t.Helper()
	e, err := Open(dir, Options{NoSync: true})
	if err == nil {
		st := e.Stats()
		e.Close()
		t.Fatalf("Open succeeded at %+v, want a refusal naming %s", st, file)
	}
	if !strings.Contains(err.Error(), file) {
		t.Fatalf("Open error %q does not name %s", err, file)
	}
}

// assertReopensAt5To8 rewrites the well-formed sidecar of a
// compactedSeqDir directory and requires it to reopen with the same
// ranking and the resume window [5, 8].
func assertReopensAt5To8(t *testing.T, dir, sidecar string, want []gallery.Candidate) {
	t.Helper()
	if err := os.WriteFile(sidecar, []byte("5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open with a well-formed sidecar: %v", err)
	}
	defer e.Close()
	assertSameRanked(t, want, snapshotRanked(t, e))
	if st := e.Stats(); st.Seq != 8 || st.BaseSeq != 5 || st.WALRecords != 3 {
		t.Fatalf("reopen: %+v, want Seq 8, BaseSeq 5, 3 records", st)
	}
	if rs := e.ReplicationState(); rs.BaseSeq != 5 || rs.Seq != 8 {
		t.Fatalf("resume window [%d, %d], want [5, 8]", rs.BaseSeq, rs.Seq)
	}
}

// applyFrames splits a WALRange batch back into frames and applies each
// to a follower.
func applyFrames(t *testing.T, follower *Engine, frames []byte) {
	t.Helper()
	for len(frames) > 0 {
		frame := frames[:4+binary.LittleEndian.Uint32(frames)+4]
		if err := follower.ApplyReplicated(frame); err != nil {
			t.Fatalf("ApplyReplicated: %v", err)
		}
		frames = frames[len(frame):]
	}
}

// TestWALRangeStreamsVerbatimFrames pins that WALRange hands out the
// exact committed frame bytes, in batches bounded by maxBytes, and
// that replaying them through ApplyReplicated reproduces the primary's
// results bit-identically.
func TestWALRangeStreamsVerbatimFrames(t *testing.T) {
	const features = 16
	primary := createEngine(t, features, Options{})
	group := randomGroup(5, features, 12)
	ids := subjectIDs(12)
	for j, id := range ids {
		if err := primary.Enroll(id, group.Col(j)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	if err := primary.Delete(ids[4]); err != nil {
		t.Fatalf("Delete: %v", err)
	}

	replica := createEngine(t, features, Options{})
	rs := primary.ReplicationState()
	var cur int64
	for cur < rs.Seq {
		frames, upTo, err := primary.WALRange(rs.Generation, cur, 512)
		if err != nil {
			t.Fatalf("WALRange(after=%d): %v", cur, err)
		}
		if upTo == cur {
			t.Fatalf("WALRange made no progress at %d", cur)
		}
		applyFrames(t, replica, frames)
		cur = upTo
	}
	if got := replica.Stats().Seq; got != rs.Seq {
		t.Fatalf("replica Seq = %d, want %d", got, rs.Seq)
	}
	probe := randomGroup(99, features, 1).Col(0)
	want, err := primary.TopKCtx(context.Background(), probe, 5, 0)
	if err != nil {
		t.Fatalf("primary TopK: %v", err)
	}
	got, err := replica.TopKCtx(context.Background(), probe, 5, 0)
	if err != nil {
		t.Fatalf("replica TopK: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replica TopK diverged:\n  primary: %+v\n  replica: %+v", want, got)
	}
	// Caught up: an empty batch, same position.
	frames, upTo, err := primary.WALRange(rs.Generation, rs.Seq, 512)
	if err != nil || len(frames) != 0 || upTo != rs.Seq {
		t.Fatalf("caught-up WALRange = (%d bytes, %d, %v), want (0, %d, nil)", len(frames), upTo, err, rs.Seq)
	}
}

// TestWALRangeWindow pins the typed out-of-window errors: a stale
// generation, a position before the window, and a position past the
// head all refuse with ErrSeqOutOfRange.
func TestWALRangeWindow(t *testing.T) {
	const features = 8
	e := createEngine(t, features, Options{})
	group := randomGroup(6, features, 4)
	for j, id := range subjectIDs(4) {
		if err := e.Enroll(id, group.Col(j)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	if _, _, err := e.WALRange(0, 99, 1<<20); !errors.Is(err, ErrSeqOutOfRange) {
		t.Fatalf("past-head WALRange: %v, want ErrSeqOutOfRange", err)
	}
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if _, _, err := e.WALRange(0, 2, 1<<20); !errors.Is(err, ErrSeqOutOfRange) {
		t.Fatalf("stale-generation WALRange: %v, want ErrSeqOutOfRange", err)
	}
	if _, _, err := e.WALRange(1, 2, 1<<20); !errors.Is(err, ErrSeqOutOfRange) {
		t.Fatalf("pre-window WALRange: %v, want ErrSeqOutOfRange", err)
	}
}

// TestFollowerResumesAcrossSwitch pins what carrying the log tail over
// verbatim buys replication: a follower one record past the cut when
// the generation switches asks the NEW generation for the rest and gets
// the very bytes the old one would have served, ending bit-identical to
// the primary; a follower one record short of the cut is out of range.
func TestFollowerResumesAcrossSwitch(t *testing.T) {
	const features = 16
	primary := createEngine(t, features, Options{})
	follower := createEngine(t, features, Options{})
	group := randomGroup(5, features, 14)
	ids := subjectIDs(14)
	for j := 0; j < 10; j++ {
		if err := primary.Enroll(ids[j], group.Col(j)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	c, err := primary.cutSnapshot()
	if err != nil {
		t.Fatalf("cutSnapshot: %v", err)
	}
	cut := int64(c.records)
	// The window: a folded record deleted and re-enrolled, fresh records.
	if err := primary.Delete(ids[2]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	for _, j := range []int{10, 2, 11, 12} {
		if err := primary.Enroll(ids[j], group.Col(j+1)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	frames, upTo, err := primary.WALRange(0, 0, 1<<20)
	if err != nil || upTo != cut+5 {
		t.Fatalf("WALRange over generation 0: upTo=%d err=%v", upTo, err)
	}
	// Frames are equal-sized but for the delete, so cut+1 is easy to find.
	enrollLen := 4 + (3 + len(ids[0]) + 8*features) + 4
	split := int(cut)*enrollLen + (4 + 3 + len(ids[2]) + 4)
	applyFrames(t, follower, frames[:split])
	if got := follower.Stats().Seq; got != cut+1 {
		t.Fatalf("follower at sequence %d, want cut+1 = %d", got, cut+1)
	}

	next, err := primary.buildGeneration(c)
	if err != nil {
		t.Fatalf("buildGeneration: %v", err)
	}
	if err := primary.swapGeneration(c, next); err != nil {
		t.Fatalf("swapGeneration: %v", err)
	}
	if rs := primary.ReplicationState(); rs.Generation != 1 || rs.BaseSeq != cut || rs.Seq != cut+5 {
		t.Fatalf("post-switch window: %+v, want generation 1 over [%d, %d]", rs, cut, cut+5)
	}
	rest, upTo, err := primary.WALRange(1, cut+1, 1<<20)
	if err != nil || upTo != cut+5 {
		t.Fatalf("WALRange(1, cut+1): upTo=%d err=%v", upTo, err)
	}
	if !bytes.Equal(rest, frames[split:]) {
		t.Fatal("generation 1 serves different bytes past cut+1 than generation 0 did")
	}
	applyFrames(t, follower, rest)
	if !reflect.DeepEqual(follower.IDs(), primary.IDs()) {
		t.Fatalf("follower enumeration diverged:\n  primary:  %v\n  follower: %v", primary.IDs(), follower.IDs())
	}
	assertSameRanked(t, snapshotRanked(t, primary), snapshotRanked(t, follower))
	if _, _, err := primary.WALRange(1, cut-1, 1<<20); !errors.Is(err, ErrSeqOutOfRange) {
		t.Fatalf("WALRange below the cut: %v, want ErrSeqOutOfRange", err)
	}
}

// TestWaitWALWakesOnCommitAndSwitch pins the waiter contract: a commit
// past the waited position wakes the waiter, a generation switch wakes
// it too, and cancellation returns the context error.
func TestWaitWALWakesOnCommitAndSwitch(t *testing.T) {
	const features = 8
	e := createEngine(t, features, Options{})
	group := randomGroup(7, features, 4)
	ids := subjectIDs(4)
	if err := e.Enroll(ids[0], group.Col(0)); err != nil {
		t.Fatalf("Enroll: %v", err)
	}

	done := make(chan error, 1)
	go func() { done <- e.WaitWAL(context.Background(), 0, 1) }()
	time.Sleep(10 * time.Millisecond)
	if err := e.Enroll(ids[1], group.Col(1)); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitWAL after commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitWAL did not wake on commit")
	}

	go func() { done <- e.WaitWAL(context.Background(), 0, 2) }()
	time.Sleep(10 * time.Millisecond)
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitWAL after switch: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitWAL did not wake on generation switch")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := e.WaitWAL(ctx, 1, e.Stats().Seq); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled WaitWAL: %v, want DeadlineExceeded", err)
	}
}

// TestApplyReplicatedRejects pins the corruption and divergence
// errors: damaged framing or checksums are ErrWALCorrupt, duplicate
// enrolls and unknown deletes surface the gallery sentinels.
func TestApplyReplicatedRejects(t *testing.T) {
	const features = 8
	e := createEngine(t, features, Options{})
	group := randomGroup(8, features, 2)
	if err := e.Enroll("subject-a", group.Col(0)); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	frames, _, err := e.WALRange(0, 0, 1<<20)
	if err != nil {
		t.Fatalf("WALRange: %v", err)
	}

	other := createEngine(t, features, Options{})
	if err := other.ApplyReplicated(frames[:5]); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("truncated frame: %v, want ErrWALCorrupt", err)
	}
	bad := append([]byte(nil), frames...)
	bad[len(bad)-1] ^= 0x40
	if err := other.ApplyReplicated(bad); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("flipped checksum: %v, want ErrWALCorrupt", err)
	}
	if err := other.ApplyReplicated(frames); err != nil {
		t.Fatalf("good frame: %v", err)
	}
	if err := other.ApplyReplicated(frames); !errors.Is(err, gallery.ErrDuplicateID) {
		t.Fatalf("replayed duplicate: %v, want ErrDuplicateID", err)
	}
	del := encodeWALRecord(walKindDelete, "never-enrolled", nil)
	if err := other.ApplyReplicated(del); !errors.Is(err, gallery.ErrUnknownID) {
		t.Fatalf("unknown delete: %v, want ErrUnknownID", err)
	}
}

// TestOpenGenerationFileBounds pins the bootstrap file server: names
// outside the generation are refused, and the write-ahead log reader
// is limited to the committed prefix.
func TestOpenGenerationFileBounds(t *testing.T) {
	const features = 8
	e := createEngine(t, features, Options{})
	group := randomGroup(9, features, 3)
	for j, id := range subjectIDs(3) {
		if err := e.Enroll(id, group.Col(j)); err != nil {
			t.Fatalf("Enroll: %v", err)
		}
	}
	if _, _, err := e.OpenGenerationFile("../CURRENT"); err == nil {
		t.Fatal("path traversal accepted")
	}
	if _, _, err := e.OpenGenerationFile("live.g0099.bpw"); err == nil {
		t.Fatal("foreign generation accepted")
	}
	rs := e.ReplicationState()
	rc, size, err := e.OpenGenerationFile(rs.WALName)
	if err != nil {
		t.Fatalf("OpenGenerationFile(%s): %v", rs.WALName, err)
	}
	defer rc.Close()
	if size != rs.WALBytes {
		t.Fatalf("log size = %d, want committed %d", size, rs.WALBytes)
	}
	files, err := e.GenerationFiles()
	if err != nil {
		t.Fatalf("GenerationFiles: %v", err)
	}
	sawSeq := false
	for _, f := range files {
		if f.Name == seqName(0) {
			sawSeq = true
		}
		if f.Name == rs.WALName {
			t.Fatal("GenerationFiles listed the write-ahead log")
		}
	}
	if !sawSeq {
		t.Fatalf("GenerationFiles missing sequence sidecar: %+v", files)
	}
}
