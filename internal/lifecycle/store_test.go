package lifecycle

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

func TestStoreSaveActivateLoadRoundTrip(t *testing.T) {
	_, det := fixture(t)
	dir := t.TempDir()
	s, err := OpenStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := s.SaveVersion(det, "initial")
	if err != nil {
		t.Fatal(err)
	}
	if v1.ID != "v000001" || v1.Status != StatusCandidate {
		t.Fatalf("first version = %+v", v1)
	}
	if v1.Bytes <= 0 || len(v1.SHA256) != 64 || v1.Clusters != det.NumClusters() {
		t.Fatalf("version metadata incomplete: %+v", v1)
	}
	if err := s.Activate(v1.ID); err != nil {
		t.Fatal(err)
	}
	act, ok := s.Active()
	if !ok || act.ID != v1.ID {
		t.Fatalf("Active = %+v, %v", act, ok)
	}
	loaded, v, err := s.LoadActive()
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != v1.ID || loaded.NumClusters() != det.NumClusters() {
		t.Fatalf("LoadActive returned %s with %d clusters", v.ID, loaded.NumClusters())
	}
	// latest points at the active version (symlink, or plain file on
	// restricted filesystems).
	latest := filepath.Join(dir, latestName)
	if target, err := os.Readlink(latest); err == nil {
		if target != v1.ID {
			t.Fatalf("latest -> %s, want %s", target, v1.ID)
		}
	} else if raw, err := os.ReadFile(latest); err != nil || len(raw) == 0 {
		t.Fatalf("latest link unreadable: %v", err)
	}
	// Reopening reads the same manifest.
	s2, err := OpenStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if act2, ok := s2.Active(); !ok || act2.ID != v1.ID {
		t.Fatal("manifest did not survive a reopen")
	}
}

func TestStoreQuarantinesCorruptActiveAndFallsBack(t *testing.T) {
	_, det := fixture(t)
	dir := t.TempDir()
	s, err := OpenStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := s.SaveVersion(det, "initial")
	if err := s.Activate(v1.ID); err != nil {
		t.Fatal(err)
	}
	v2, _ := s.SaveVersion(det, "retrain")
	if err := s.Activate(v2.ID); err != nil {
		t.Fatal(err)
	}
	// Corrupt v2's payload on disk; the checksum must catch it.
	if err := os.WriteFile(filepath.Join(dir, v2.ID, payloadName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, v, err := s.LoadActive()
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if v.ID != v1.ID || loaded == nil {
		t.Fatalf("LoadActive recovered %s, want %s", v.ID, v1.ID)
	}
	for _, rec := range s.Versions() {
		switch rec.ID {
		case v1.ID:
			if rec.Status != StatusActive {
				t.Errorf("%s status %s, want active", rec.ID, rec.Status)
			}
		case v2.ID:
			if rec.Status != StatusQuarantined {
				t.Errorf("%s status %s, want quarantined", rec.ID, rec.Status)
			}
		}
	}
	// The corrupt payload moved aside for inspection.
	if _, err := os.Stat(filepath.Join(dir, "quarantine", v2.ID)); err != nil {
		t.Errorf("quarantined payload not preserved: %v", err)
	}
}

func TestStoreEmptyAndAllCorrupt(t *testing.T) {
	_, det := fixture(t)
	dir := t.TempDir()
	s, _ := OpenStore(dir, 3)
	if _, _, err := s.LoadActive(); err == nil {
		t.Fatal("LoadActive on an empty registry must error")
	}
	v1, _ := s.SaveVersion(det, "initial")
	if err := s.Activate(v1.ID); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, v1.ID, payloadName), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadActive(); err == nil {
		t.Fatal("LoadActive with every payload corrupt must error, not loop")
	}
}

func TestStoreRollback(t *testing.T) {
	_, det := fixture(t)
	s, _ := OpenStore(t.TempDir(), 3)
	v1, _ := s.SaveVersion(det, "initial")
	_ = s.Activate(v1.ID)
	v2, _ := s.SaveVersion(det, "retrain")
	_ = s.Activate(v2.ID)

	back, err := s.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != v1.ID {
		t.Fatalf("rolled back to %s, want %s", back.ID, v1.ID)
	}
	for _, rec := range s.Versions() {
		if rec.ID == v2.ID && (rec.Status != StatusRetired || rec.Reason != "rolled back") {
			t.Fatalf("rolled-back version = %+v", rec)
		}
	}
	// Rolling back again ping-pongs: v2 is now the newest retired version.
	again, err := s.Rollback()
	if err != nil || again.ID != v2.ID {
		t.Fatalf("second rollback = %+v, %v; want %s", again, err, v2.ID)
	}

	// A registry with nothing retired has nowhere to roll back to.
	s2, _ := OpenStore(t.TempDir(), 3)
	only, _ := s2.SaveVersion(det, "initial")
	_ = s2.Activate(only.ID)
	if _, err := s2.Rollback(); err == nil {
		t.Fatal("rollback with no retired version must error")
	}
}

func TestStoreRetentionPrunes(t *testing.T) {
	_, det := fixture(t)
	dir := t.TempDir()
	s, _ := OpenStore(dir, 2)
	var ids []string
	for i := 0; i < 6; i++ {
		v, err := s.SaveVersion(det, "retrain")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Activate(v.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	inactive := 0
	for _, rec := range s.Versions() {
		if rec.Status != StatusActive {
			inactive++
		}
	}
	if inactive > 2 {
		t.Fatalf("%d inactive versions survive a keep=2 store", inactive)
	}
	if act, ok := s.Active(); !ok || act.ID != ids[len(ids)-1] {
		t.Fatal("newest version must stay active through pruning")
	}
	// Pruned version directories are gone from disk.
	kept := map[string]bool{}
	for _, rec := range s.Versions() {
		kept[rec.ID] = true
	}
	for _, id := range ids {
		_, err := os.Stat(filepath.Join(dir, id))
		if kept[id] && err != nil {
			t.Errorf("retained version %s missing on disk: %v", id, err)
		}
		if !kept[id] && err == nil {
			t.Errorf("pruned version %s still on disk", id)
		}
	}
}

func TestStoreRejectAndErrors(t *testing.T) {
	_, det := fixture(t)
	s, _ := OpenStore(t.TempDir(), 3)
	v1, _ := s.SaveVersion(det, "initial")
	if err := s.Reject(v1.ID, "gate failed"); err != nil {
		t.Fatal(err)
	}
	recs := s.Versions()
	if recs[0].Status != StatusRejected || recs[0].Reason != "gate failed" {
		t.Fatalf("rejected record = %+v", recs[0])
	}
	if err := s.Activate("v999999"); err == nil {
		t.Fatal("activating an unknown version must error")
	}
	if err := s.Reject("v999999", "x"); err == nil {
		t.Fatal("rejecting an unknown version must error")
	}
	if err := s.Quarantine(v1.ID, "checksum"); err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(v1.ID); err == nil {
		t.Fatal("activating a quarantined version must error")
	}
}

// TestStoreGCNeverResurrectsQuarantined: retention pruning on Activate
// drops a quarantined version's record once it falls outside keep-K, and
// the payload stays under quarantine/ where nothing loads it.
func TestStoreGCNeverResurrectsQuarantined(t *testing.T) {
	_, det := fixture(t)
	dir := t.TempDir()
	s, _ := OpenStore(dir, 1)

	v1, _ := s.SaveVersion(det, "initial")
	_ = s.Activate(v1.ID)
	v2, _ := s.SaveVersion(det, "retrain")
	_ = s.Activate(v2.ID)
	if err := s.Quarantine(v1.ID, "operator flag"); err != nil {
		t.Fatal(err)
	}
	for _, rec := range s.Versions() {
		if rec.ID == v1.ID && rec.Status != StatusQuarantined {
			t.Fatalf("%s = %+v before pruning, want quarantined", v1.ID, rec)
		}
	}
	v3, _ := s.SaveVersion(det, "retrain")
	if err := s.Activate(v3.ID); err != nil { // v2 retires: two inactive, keep 1
		t.Fatal(err)
	}
	for _, rec := range s.Versions() {
		if rec.ID == v1.ID {
			t.Fatalf("quarantined %s outside keep-K survives pruning: %+v", v1.ID, rec)
		}
	}
	// The record is gone, but the payload stays under quarantine/ — and
	// nothing the registry does can load it again.
	if _, err := os.Stat(filepath.Join(dir, "quarantine", v1.ID)); err != nil {
		t.Fatalf("quarantined payload lost by pruning: %v", err)
	}
	if _, _, err := s.ReadPayload(v1.ID); err == nil {
		t.Fatal("pruned quarantined version must stay unreadable")
	}
	if err := s.Activate(v1.ID); err == nil {
		t.Fatal("pruned quarantined version must not be activatable")
	}
	// A reopen sees the same world: no resurrected record.
	s2, err := OpenStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range s2.Versions() {
		if rec.ID == v1.ID {
			t.Fatalf("quarantined %s resurrected after reopen: %+v", v1.ID, rec)
		}
	}
	if _, v, err := s2.LoadActive(); err != nil || v.ID != v3.ID {
		t.Fatalf("LoadActive after pruning = %s, %v; want %s", v.ID, err, v3.ID)
	}
}

func TestStoreReadPayloadVerifiesChecksum(t *testing.T) {
	_, det := fixture(t)
	dir := t.TempDir()
	s, _ := OpenStore(dir, 3)
	v1, _ := s.SaveVersion(det, "initial")
	_ = s.Activate(v1.ID)

	raw, v, err := s.ReadPayload(v1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != v1.ID || int64(len(raw)) != v1.Bytes {
		t.Fatalf("ReadPayload = %s/%d bytes, want %s/%d", v.ID, len(raw), v1.ID, v1.Bytes)
	}
	sum := sha256.Sum256(raw)
	if hex.EncodeToString(sum[:]) != v1.SHA256 {
		t.Fatal("payload bytes do not match manifest checksum")
	}
	if _, _, err := s.ReadPayload("v999999"); err == nil {
		t.Fatal("unknown version must error")
	}

	// Corruption on disk quarantines at read time instead of serving bad
	// bytes to a scorer.
	v2, _ := s.SaveVersion(det, "retrain")
	if err := os.WriteFile(filepath.Join(dir, v2.ID, payloadName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReadPayload(v2.ID); err == nil {
		t.Fatal("corrupt payload must not be served")
	}
	for _, rec := range s.Versions() {
		if rec.ID == v2.ID && rec.Status != StatusQuarantined {
			t.Fatalf("corrupt payload not quarantined: %+v", rec)
		}
	}
	if _, _, err := s.ReadPayload(v2.ID); err == nil {
		t.Fatal("quarantined version must stay refused")
	}
}
