package runtime

import (
	"math/rand"
	"testing"

	"nodesentry/internal/core"
)

// TestAbsorbScoresThresholdsLikeWholeHistoryRule pins that thresholding only
// the samples a window appended changes no verdict: for random score
// streams, threshold windows down to the rule's four-sample clamp, windows
// arriving on a history shorter than four samples and on one just trimmed,
// the alerts absorbScores raises are exactly the tail of
// core.KSigmaThreshold run over the whole history.
func TestAbsorbScoresThresholdsLikeWholeHistoryRule(t *testing.T) {
	ds, shared := fixture(t)
	node := ds.Nodes()[0]
	src := ds.Frames[node]
	for _, winSec := range []int64{1200, 300, 2 * ds.Step, ds.Step / 2} { // the last two clamp to 4 samples; the last never trims
		det, err := shared.Clone()
		if err != nil {
			t.Fatal(err)
		}
		det.SetOnlineParams(0, winSec, 0)
		_, k := det.OnlineParams()
		// A cooldown under one step turns every verdict into an alert.
		m, err := NewMonitor(det, Config{Step: ds.Step, CooldownSec: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		st := m.state(node)
		rng := rand.New(rand.NewSource(winSec))
		at, raised, trimmed := 1, 0, false
		for call := 0; call < 42; call++ {
			n := []int{3, 1, 20, 7, 20, 20}[call%6] // the first windows land on fewer than 4 samples
			scores := make([]float64, n)
			for i := range scores {
				scores[i] = 1 + 0.05*rng.NormFloat64()
				if rng.Intn(10) == 0 {
					scores[i] *= 1 + 3*rng.Float64()
				}
			}
			frame := src.Slice(at, at+n)
			at += n
			before := append([]float64(nil), st.scores...)
			want := core.KSigmaThreshold(append(before, scores...), ds.Step, winSec, k)[len(before):]

			st.mu.Lock()
			alerts := m.absorbScores(det, st, frame, scores)
			st.mu.Unlock()

			trimmed = trimmed || len(st.scores) < len(before)+n
			got := make([]bool, n)
			for _, a := range alerts {
				got[frame.IndexOf(a.Time)] = true
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("window %ds, call %d (history %d), sample %d: alerted %v, whole-history rule says %v",
						winSec, call, len(before), i, got[i], want[i])
				}
			}
			raised += len(alerts)
		}
		if raised == 0 {
			t.Errorf("window %ds: no verdict was positive; the check is vacuous", winSec)
		}
		if winSec >= ds.Step && !trimmed {
			t.Errorf("window %ds: the history was never trimmed; the post-trim case is not covered", winSec)
		}
	}
}
