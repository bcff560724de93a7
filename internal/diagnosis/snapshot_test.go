package diagnosis

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/alarm"
	"repro/internal/datalog"
	"repro/internal/petri"
	"repro/internal/snapshot"
)

// snapshotRestore round-trips a diagnoser through the full encode →
// bytes → Open → decode path, as a real checkpoint file would.
func snapshotRestore(t *testing.T, d *OnlineDiagnoser, pn *petri.PetriNet) *OnlineDiagnoser {
	t.Helper()
	f := snapshot.New()
	if err := d.EncodeSnapshot(f); err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}
	o, err := snapshot.Open(f.Bytes())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	restored, err := DecodeOnlineDiagnoserSnapshot(o, pn)
	if err != nil {
		t.Fatalf("DecodeOnlineDiagnoserSnapshot: %v", err)
	}
	return restored
}

// TestDiagnoserSnapshotEquivalence is the invariant the whole checkpoint
// subsystem hangs on: a diagnoser killed after k appends and restored
// from its snapshot must produce byte-identical diagnoses, derived-fact
// counts and message counts on every subsequent append, compared against
// a diagnoser that was never interrupted. Checked for every split point
// of the quickstart sequence.
func TestDiagnoserSnapshotEquivalence(t *testing.T) {
	pn := petri.Example()
	seq := seqA1
	for k := 0; k <= len(seq); k++ {
		ref, err := NewOnlineDiagnoser(pn, datalog.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		cut, err := NewOnlineDiagnoser(pn, datalog.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if _, err := ref.Append([]alarm.Obs{seq[i]}, time.Minute); err != nil {
				t.Fatal(err)
			}
			if _, err := cut.Append([]alarm.Obs{seq[i]}, time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		restored := snapshotRestore(t, cut, pn)
		if got, want := restored.Seq(), ref.Seq(); len(got) != len(want) {
			t.Fatalf("split %d: restored Seq has %d alarms, want %d", k, len(got), len(want))
		}
		if (restored.Report() == nil) != (ref.Report() == nil) {
			t.Fatalf("split %d: restored report presence differs", k)
		}
		if restored.Report() != nil && !restored.Report().Diagnoses.Equal(ref.Report().Diagnoses) {
			t.Fatalf("split %d: restored last report differs", k)
		}
		for i := k; i < len(seq); i++ {
			want, err := ref.Append([]alarm.Obs{seq[i]}, time.Minute)
			if err != nil {
				t.Fatalf("split %d ref append %d: %v", k, i, err)
			}
			got, err := restored.Append([]alarm.Obs{seq[i]}, time.Minute)
			if err != nil {
				t.Fatalf("split %d restored append %d: %v", k, i, err)
			}
			if !got.Diagnoses.Equal(want.Diagnoses) {
				t.Fatalf("split %d append %d: diagnoses %v != %v", k, i, got.Diagnoses.Keys(), want.Diagnoses.Keys())
			}
			if got.Derived != want.Derived {
				t.Fatalf("split %d append %d: derived %d != %d", k, i, got.Derived, want.Derived)
			}
			if got.Messages != want.Messages {
				t.Fatalf("split %d append %d: messages %d != %d", k, i, got.Messages, want.Messages)
			}
			if got.TransFacts != want.TransFacts || got.PlaceFacts != want.PlaceFacts {
				t.Fatalf("split %d append %d: unfolding %d/%d != %d/%d",
					k, i, got.TransFacts, got.PlaceFacts, want.TransFacts, want.PlaceFacts)
			}
		}
	}
}

// TestDiagnoserSnapshotRefusesPoisoned: a poisoned session must never be
// persisted — its warm state is desynchronized from its durable state.
func TestDiagnoserSnapshotRefusesPoisoned(t *testing.T) {
	d, err := NewOnlineDiagnoser(petri.Example(), datalog.Budget{MaxFacts: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append(seqA1[:1], time.Minute); err == nil {
		t.Fatal("expected budget failure")
	}
	if err := d.EncodeSnapshot(snapshot.New()); err == nil {
		t.Fatal("EncodeSnapshot accepted a poisoned session")
	}
}

// TestDiagnoserSnapshotRejectsCorruption: flipping any single byte of a
// snapshot must yield an error, never a panic or a silently restored
// partial state.
func TestDiagnoserSnapshotRejectsCorruption(t *testing.T) {
	pn := petri.Example()
	d, err := NewOnlineDiagnoser(pn, datalog.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append(seqA1[:1], time.Minute); err != nil {
		t.Fatal(err)
	}
	f := snapshot.New()
	if err := d.EncodeSnapshot(f); err != nil {
		t.Fatal(err)
	}
	data := f.Bytes()
	// Every section is CRC-protected, so any body flip fails at Open;
	// header flips fail magic/version/framing checks. Sample positions
	// across the file to keep the test fast.
	step := len(data)/97 + 1
	for i := 0; i < len(data); i += step {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x41
		o, err := snapshot.Open(mut)
		if err != nil {
			continue
		}
		if _, err := DecodeOnlineDiagnoserSnapshot(o, pn); err == nil {
			t.Fatalf("byte flip at %d restored without error", i)
		}
	}
	// Truncations likewise.
	for i := 0; i < len(data); i += step {
		o, err := snapshot.Open(data[:i])
		if err != nil {
			continue
		}
		if _, err := DecodeOnlineDiagnoserSnapshot(o, pn); err == nil {
			t.Fatalf("truncation to %d restored without error", i)
		}
	}
}

// TestDiagnoserSnapshotOfMajor3IsRefused: format 3 held a session's whole
// state — store, program, rewriters, engine — where format 4 holds what the
// session added past its net's template. There is no shim: a file that says
// it is format 3 — here a diagnoser's snapshot with its header patched — is
// refused with ErrVersion before any section is decoded, whether Open
// reads it from memory or from disk.
func TestDiagnoserSnapshotOfMajor3IsRefused(t *testing.T) {
	d, err := NewOnlineDiagnoser(petri.Example(), datalog.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append(seqA1[:2], time.Minute); err != nil {
		t.Fatal(err)
	}
	f := snapshot.New()
	if err := d.EncodeSnapshot(f); err != nil {
		t.Fatal(err)
	}
	old := f.Bytes()
	if old[len(snapshot.Magic)] != snapshot.Major || snapshot.Major != 4 {
		t.Fatalf("header says major %d, this build writes %d, the test expects 4", old[len(snapshot.Magic)], snapshot.Major)
	}
	old[len(snapshot.Magic)] = 3
	if _, err := snapshot.Open(old); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("Open of a format-3 file: %v, want ErrVersion", err)
	}
	path := filepath.Join(t.TempDir(), "old.dsnp")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.ReadFile(path); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("Open of a format-3 file on disk: %v, want ErrVersion", err)
	}
}

// TestRestoreClonesTheCachedTemplate: restoring a session of a net whose
// template is cached finds the template in the cache and compiles nothing —
// the restored engine runs the template's compiled rules — and snapshots to
// the bytes it was restored from. A snapshot taken over another
// template than the one cached for its net is refused with ErrVersion and
// restores no session.
func TestRestoreClonesTheCachedTemplate(t *testing.T) {
	pn := petri.Example()
	tmpl, _, err := cachedTemplate(pn, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := tmpl.session(pn, datalog.Budget{})
	if _, err := d.Append(seqA1[:2], time.Minute); err != nil {
		t.Fatal(err)
	}
	f := snapshot.New()
	if err := d.EncodeSnapshot(f); err != nil {
		t.Fatal(err)
	}
	data := f.Bytes()
	o, err := snapshot.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := ProgramCacheStats()
	restored, err := DecodeOnlineDiagnoserSnapshot(o, pn)
	if err != nil {
		t.Fatal(err)
	}
	if h, m, _ := ProgramCacheStats(); h != hits+1 || m != misses {
		t.Fatalf("a restore of a cached net: %d cache hits and %d builds, want 1 and 0", h-hits, m-misses)
	}
	again := snapshot.New()
	if err := restored.EncodeSnapshot(again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), data) {
		t.Fatal("a restored session snapshots to other bytes than the session it restores")
	}
	eng := restored.Session().Engine()
	for _, id := range eng.Peers() {
		mine, theirs := eng.Rules(id), tmpl.sess.Engine().Rules(id)
		if len(mine) != len(theirs) {
			t.Fatalf("peer %s: the restored session hosts %d rules, its template %d", id, len(mine), len(theirs))
		}
		for ri := range mine {
			if mine[ri] != theirs[ri] {
				t.Fatalf("peer %s, rule %d: the restored session compiled its own copy", id, ri)
			}
		}
	}

	other, _, err := cachedTemplate(freshNet(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := templateKey{net: netDigest(pn)}
	c := &programCache
	c.mu.Lock()
	kept := c.entries[key]
	swapped := &cacheEntry{ready: make(chan struct{}), tmpl: other}
	close(swapped.ready)
	c.entries[key] = swapped
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.entries[key] = kept
		c.mu.Unlock()
	}()
	if other.fingerprint == tmpl.fingerprint {
		t.Fatal("the templates of two nets have one fingerprint")
	}
	if got, err := DecodeOnlineDiagnoserSnapshot(o, pn); !errors.Is(err, snapshot.ErrVersion) || got != nil {
		t.Fatalf("restore over another template: %v, %v; want no session and ErrVersion", got, err)
	}
}
