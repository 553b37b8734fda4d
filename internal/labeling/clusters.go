package labeling

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"nodesentry/internal/cluster"
	"nodesentry/internal/mat"
	"nodesentry/internal/mts"
)

// ClusterSession is the interactive cluster-adjustment state: algorithmic
// assignments plus operator overrides, with centroids recomputed after
// every adjustment — functionality (3) of the paper's tool. All methods
// are safe for concurrent use; Features and Segments are fixed at
// construction and must not be mutated afterwards.
type ClusterSession struct {
	// Features is the segment feature matrix (row per segment).
	Features *mat.Matrix
	// Segments identifies the rows.
	Segments []mts.Segment

	mu sync.RWMutex
	// original holds the algorithmic labels; current the adjusted ones.
	original []int
	current  []int
	k        int
}

// NewClusterSession runs the built-in HAC clustering (silhouette-guided)
// and returns an adjustable session.
func NewClusterSession(F *mat.Matrix, segments []mts.Segment, kMin, kMax int) *ClusterSession {
	res := cluster.HACAuto(F, cluster.Average, kMin, kMax)
	return &ClusterSession{
		Features: F,
		Segments: segments,
		original: append([]int(nil), res.Labels...),
		current:  append([]int(nil), res.Labels...),
		k:        res.K,
	}
}

// NumClusters returns the current cluster count.
func (c *ClusterSession) NumClusters() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.k
}

// Labels returns the adjusted labels (copy).
func (c *ClusterSession) Labels() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]int(nil), c.current...)
}

// OriginalLabels returns the algorithmic labels (copy).
func (c *ClusterSession) OriginalLabels() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]int(nil), c.original...)
}

// Move reassigns segment i to cluster target; target == NumClusters()
// creates a new cluster. A label is always below the segment count, the
// bound LoadAdjustments enforces. Centroids are implicitly updated (they
// are derived from labels on demand).
func (c *ClusterSession) Move(i, target int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.current) {
		return fmt.Errorf("labeling: segment %d out of range", i)
	}
	if limit := min(c.k, len(c.current)-1); target < 0 || target > limit {
		return fmt.Errorf("labeling: cluster %d out of range (0..%d allowed)", target, limit)
	}
	if target == c.k {
		c.k++
	}
	c.current[i] = target
	return nil
}

// Centroids returns the centroids of the adjusted clustering.
func (c *ClusterSession) Centroids() *mat.Matrix {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return cluster.Centroids(c.Features, c.current, c.k)
}

// Silhouette scores the adjusted clustering.
func (c *ClusterSession) Silhouette() float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return cluster.Silhouette(c.Features, c.current)
}

// Adjusted reports how many segments differ from the algorithmic result.
func (c *ClusterSession) Adjusted() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for i := range c.current {
		if c.current[i] != c.original[i] {
			n++
		}
	}
	return n
}

// Save writes the artifact's two cluster files: config_files/
// cluster_result.txt (raw algorithmic output) and cluster_adjust.txt
// (operator-modified groupings). Format: one "node job cluster" line per
// segment.
func (c *ClusterSession) Save(dir string) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cfgDir := filepath.Join(dir, "config_files")
	if err := os.MkdirAll(cfgDir, 0o755); err != nil {
		return err
	}
	write := func(path string, labels []int) error {
		var b strings.Builder
		for i, seg := range c.Segments {
			fmt.Fprintf(&b, "%s %d %d\n", seg.Node, seg.Job, labels[i])
		}
		return os.WriteFile(path, []byte(b.String()), 0o644)
	}
	if err := write(filepath.Join(cfgDir, "cluster_result.txt"), c.original); err != nil {
		return err
	}
	return write(filepath.Join(dir, "cluster_adjust.txt"), c.current)
}

// LoadAdjustments applies a previously saved cluster_adjust.txt to the
// session. Row i must name segment i's node and job, so a file saved from
// another dataset or segmentation is rejected, and every cluster must be
// below the segment count. On error the session is unchanged.
func (c *ClusterSession) LoadAdjustments(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var lines []string
	if text := strings.TrimSpace(string(data)); text != "" {
		lines = strings.Split(text, "\n")
	}
	if len(lines) != len(c.Segments) {
		return fmt.Errorf("labeling: %s has %d rows, session has %d segments", path, len(lines), len(c.Segments))
	}
	maxK := c.k
	labels := make([]int, len(lines))
	for i, line := range lines {
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return fmt.Errorf("labeling: bad row %q", line)
		}
		seg := c.Segments[i]
		if job, err := strconv.ParseInt(fields[1], 10, 64); err != nil || fields[0] != seg.Node || job != seg.Job {
			return fmt.Errorf("labeling: row %d is %q, want segment %s job %d", i, line, seg.Node, seg.Job)
		}
		l, err := strconv.Atoi(fields[2])
		if err != nil || l < 0 || l >= len(c.Segments) {
			return fmt.Errorf("labeling: bad cluster in row %q (0..%d allowed)", line, len(c.Segments)-1)
		}
		labels[i] = l
		if l+1 > maxK {
			maxK = l + 1
		}
	}
	c.current = labels
	c.k = maxK
	return nil
}
