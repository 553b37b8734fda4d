package lifecycle

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"nodesentry/internal/core"
)

// Version statuses. A version is born candidate, becomes active on
// promotion (retiring the previous active), rejected when the shadow gate
// fails it, retired when superseded, and quarantined when its payload no
// longer matches its checksum.
const (
	StatusCandidate   = "candidate"
	StatusActive      = "active"
	StatusRejected    = "rejected"
	StatusRetired     = "retired"
	StatusQuarantined = "quarantined"
)

// Version is one registry entry's manifest record.
type Version struct {
	// ID is the directory name under the registry root (v000001, ...).
	ID string `json:"id"`
	// SHA256 is the hex digest of the model payload.
	SHA256 string `json:"sha256"`
	// Bytes is the payload size.
	Bytes int64 `json:"bytes"`
	// CreatedUnix is the creation time (Unix seconds).
	CreatedUnix int64 `json:"created_unix"`
	// Source records why the version exists ("initial", "drift: ...",
	// "schedule", ...).
	Source string `json:"source"`
	// Status is one of the Status* constants.
	Status string `json:"status"`
	// Reason records the promotion/rejection/quarantine decision.
	Reason string `json:"reason,omitempty"`
	// Clusters is the model library size, for operator listings.
	Clusters int `json:"clusters"`
}

type manifest struct {
	Versions []Version `json:"versions"`
}

const (
	manifestName = "manifest.json"
	payloadName  = "model.bin"
	latestName   = "latest"
)

// Store is the versioned on-disk model registry: one subdirectory per
// version holding the core.Detector.Save payload, a checksummed manifest,
// `latest` symlink semantics for the active version, retention of the last
// K inactive versions, and quarantine of corrupt entries with fallback
// through the lineage.
type Store struct {
	mu   sync.Mutex
	dir  string
	keep int
	man  manifest
}

// OpenStore opens (creating if needed) a registry rooted at dir, retaining
// at most keep inactive versions (default 5).
func OpenStore(dir string, keep int) (*Store, error) {
	if keep <= 0 {
		keep = 5
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lifecycle: create registry %s: %w", dir, err)
	}
	s := &Store{dir: dir, keep: keep}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case os.IsNotExist(err):
		return s, nil
	case err != nil:
		return nil, fmt.Errorf("lifecycle: read manifest: %w", err)
	}
	if err := json.Unmarshal(raw, &s.man); err != nil {
		return nil, fmt.Errorf("lifecycle: parse manifest: %w", err)
	}
	return s, nil
}

// Dir returns the registry root.
func (s *Store) Dir() string { return s.dir }

// ReadPayload returns the raw serialized payload for version id after
// verifying it against the manifest checksum — the bytes a scorer pulls
// over the coordinator's /registry/model/{id} API. Quarantined versions
// are refused; a payload that no longer matches its checksum is
// quarantined on the spot.
func (s *Store) ReadPayload(id string) ([]byte, Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.indexLocked(id)
	if idx < 0 {
		return nil, Version{}, fmt.Errorf("lifecycle: payload %s: unknown version", id)
	}
	v := s.man.Versions[idx]
	if v.Status == StatusQuarantined {
		return nil, Version{}, fmt.Errorf("lifecycle: payload %s: version is quarantined", id)
	}
	raw, err := os.ReadFile(filepath.Join(s.dir, v.ID, payloadName))
	if err != nil {
		return nil, Version{}, fmt.Errorf("lifecycle: payload %s: %w", id, err)
	}
	sum := sha256.Sum256(raw)
	if hex.EncodeToString(sum[:]) != v.SHA256 {
		if qerr := s.quarantineLocked(v.ID, "payload checksum mismatch on read"); qerr != nil {
			return nil, Version{}, qerr
		}
		return nil, Version{}, fmt.Errorf("lifecycle: payload %s: checksum mismatch", id)
	}
	return raw, v, nil
}

// Versions returns the manifest records, oldest first.
func (s *Store) Versions() []Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Version(nil), s.man.Versions...)
}

// Active returns the active version, if any.
func (s *Store) Active() (Version, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range s.man.Versions {
		if v.Status == StatusActive {
			return v, true
		}
	}
	return Version{}, false
}

// SaveVersion serializes det as a new candidate version and records it in
// the manifest.
func (s *Store) SaveVersion(det *core.Detector, source string) (Version, error) {
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		return Version{}, fmt.Errorf("lifecycle: serialize model: %w", err)
	}
	payload := buf.Bytes()
	sum := sha256.Sum256(payload)

	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextIDLocked()
	vdir := filepath.Join(s.dir, id)
	if err := os.MkdirAll(vdir, 0o755); err != nil {
		return Version{}, fmt.Errorf("lifecycle: create version dir: %w", err)
	}
	tmp := filepath.Join(vdir, payloadName+".tmp")
	if err := os.WriteFile(tmp, payload, 0o644); err != nil {
		return Version{}, fmt.Errorf("lifecycle: write payload: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(vdir, payloadName)); err != nil {
		return Version{}, fmt.Errorf("lifecycle: finalize payload: %w", err)
	}
	v := Version{
		ID:          id,
		SHA256:      hex.EncodeToString(sum[:]),
		Bytes:       int64(len(payload)),
		CreatedUnix: time.Now().Unix(),
		Source:      source,
		Status:      StatusCandidate,
		Clusters:    det.NumClusters(),
	}
	s.man.Versions = append(s.man.Versions, v)
	if err := s.writeManifestLocked(); err != nil {
		return Version{}, err
	}
	return v, nil
}

// Activate promotes version id to active, retires the previous active
// version, refreshes the `latest` link, and prunes beyond the retention
// limit.
func (s *Store) Activate(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.indexLocked(id)
	if idx < 0 {
		return fmt.Errorf("lifecycle: activate %s: unknown version", id)
	}
	if s.man.Versions[idx].Status == StatusQuarantined {
		return fmt.Errorf("lifecycle: activate %s: version is quarantined", id)
	}
	for i := range s.man.Versions {
		if s.man.Versions[i].Status == StatusActive && s.man.Versions[i].ID != id {
			s.man.Versions[i].Status = StatusRetired
		}
	}
	s.man.Versions[idx].Status = StatusActive
	s.linkLatestLocked(id)
	s.pruneLocked()
	return s.writeManifestLocked()
}

// Reject marks a candidate as rejected with the gate's reason.
func (s *Store) Reject(id, reason string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.indexLocked(id)
	if idx < 0 {
		return fmt.Errorf("lifecycle: reject %s: unknown version", id)
	}
	s.man.Versions[idx].Status = StatusRejected
	s.man.Versions[idx].Reason = reason
	s.pruneLocked()
	return s.writeManifestLocked()
}

// Quarantine marks a version corrupt. Its payload directory is renamed
// under quarantine/ so operators can inspect it without the registry ever
// loading it again.
func (s *Store) Quarantine(id, reason string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantineLocked(id, reason)
}

func (s *Store) quarantineLocked(id, reason string) error {
	idx := s.indexLocked(id)
	if idx < 0 {
		return fmt.Errorf("lifecycle: quarantine %s: unknown version", id)
	}
	s.man.Versions[idx].Status = StatusQuarantined
	s.man.Versions[idx].Reason = reason
	qdir := filepath.Join(s.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		// Best effort: the status flip is what protects loads.
		_ = os.Rename(filepath.Join(s.dir, id), filepath.Join(qdir, id))
	}
	return s.writeManifestLocked()
}

// LoadActive loads the active version's detector, verifying its checksum.
// A corrupt or unloadable active entry is quarantined and the lineage is
// walked backwards (newest retired version first) until a healthy payload
// loads; the recovered version becomes active again.
func (s *Store) LoadActive() (*core.Detector, Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		idx := -1
		for i, v := range s.man.Versions {
			if v.Status == StatusActive {
				idx = i
				break
			}
		}
		if idx < 0 {
			// Fall back through retired lineage, newest first.
			for i := len(s.man.Versions) - 1; i >= 0; i-- {
				if s.man.Versions[i].Status == StatusRetired {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			return nil, Version{}, fmt.Errorf("lifecycle: registry has no loadable version")
		}
		v := s.man.Versions[idx]
		det, err := s.loadVersionLocked(v)
		if err == nil {
			if s.man.Versions[idx].Status != StatusActive {
				s.man.Versions[idx].Status = StatusActive
				s.linkLatestLocked(v.ID)
				if werr := s.writeManifestLocked(); werr != nil {
					return nil, Version{}, werr
				}
			}
			return det, s.man.Versions[idx], nil
		}
		if qerr := s.quarantineLocked(v.ID, err.Error()); qerr != nil {
			return nil, Version{}, qerr
		}
	}
}

// Rollback retires the active version and reactivates the newest retired
// one — the operator's "undo the last promotion".
func (s *Store) Rollback() (Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := -1
	for i := len(s.man.Versions) - 1; i >= 0; i-- {
		if s.man.Versions[i].Status == StatusRetired {
			prev = i
			break
		}
	}
	if prev < 0 {
		return Version{}, fmt.Errorf("lifecycle: no retired version to roll back to")
	}
	for i := range s.man.Versions {
		if s.man.Versions[i].Status == StatusActive {
			s.man.Versions[i].Status = StatusRetired
			s.man.Versions[i].Reason = "rolled back"
		}
	}
	s.man.Versions[prev].Status = StatusActive
	s.linkLatestLocked(s.man.Versions[prev].ID)
	if err := s.writeManifestLocked(); err != nil {
		return Version{}, err
	}
	return s.man.Versions[prev], nil
}

func (s *Store) loadVersionLocked(v Version) (*core.Detector, error) {
	raw, err := os.ReadFile(filepath.Join(s.dir, v.ID, payloadName))
	if err != nil {
		return nil, fmt.Errorf("read payload: %w", err)
	}
	sum := sha256.Sum256(raw)
	if hex.EncodeToString(sum[:]) != v.SHA256 {
		return nil, fmt.Errorf("checksum mismatch (have %s, manifest %s)",
			hex.EncodeToString(sum[:8]), v.SHA256[:16])
	}
	det, err := core.Load(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	return det, nil
}

func (s *Store) indexLocked(id string) int {
	for i, v := range s.man.Versions {
		if v.ID == id {
			return i
		}
	}
	return -1
}

func (s *Store) nextIDLocked() string {
	highest := 0
	for _, v := range s.man.Versions {
		if n, err := strconv.Atoi(strings.TrimPrefix(v.ID, "v")); err == nil && n > highest {
			highest = n
		}
	}
	return fmt.Sprintf("v%06d", highest+1)
}

// linkLatestLocked points dir/latest at the version directory, atomically
// (symlink to a temp name, then rename over). Filesystems without symlink
// support get a plain file holding the id — the manifest, not the link, is
// authoritative either way.
func (s *Store) linkLatestLocked(id string) {
	tmp := filepath.Join(s.dir, latestName+".tmp")
	_ = os.Remove(tmp) // stale temp from a crashed run; ignore
	if err := os.Symlink(id, tmp); err != nil {
		// Symlinks unavailable (e.g. restricted FS): record as plain text.
		if werr := os.WriteFile(tmp, []byte(id+"\n"), 0o644); werr != nil {
			return
		}
	}
	_ = os.Rename(tmp, filepath.Join(s.dir, latestName)) // best effort; manifest is authoritative
}

// pruneLocked deletes the oldest inactive versions beyond keep-K. Active
// and candidate versions are never pruned; a quarantined payload already
// lives under quarantine/ and only its record is dropped, so pruning can
// never bring one back.
func (s *Store) pruneLocked() {
	var inactive []int
	for i, v := range s.man.Versions {
		switch v.Status {
		case StatusRetired, StatusRejected, StatusQuarantined:
			inactive = append(inactive, i)
		}
	}
	if len(inactive) <= s.keep {
		return
	}
	sort.SliceStable(inactive, func(a, b int) bool {
		return s.man.Versions[inactive[a]].CreatedUnix < s.man.Versions[inactive[b]].CreatedUnix
	})
	drop := map[int]bool{}
	for _, idx := range inactive[:len(inactive)-s.keep] {
		drop[idx] = true
		_ = os.RemoveAll(filepath.Join(s.dir, s.man.Versions[idx].ID)) // retention cleanup; dir may be gone
	}
	kept := s.man.Versions[:0]
	for i, v := range s.man.Versions {
		if !drop[i] {
			kept = append(kept, v)
		}
	}
	s.man.Versions = kept
}

func (s *Store) writeManifestLocked() error {
	raw, err := json.MarshalIndent(&s.man, "", "  ")
	if err != nil {
		return fmt.Errorf("lifecycle: encode manifest: %w", err)
	}
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("lifecycle: write manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		return fmt.Errorf("lifecycle: finalize manifest: %w", err)
	}
	return nil
}
