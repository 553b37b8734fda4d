package eval

import "time"

// LatencyReport summarizes detection delay: how long after each true
// anomaly interval began the detector first fired inside it. The paper's
// case study frames this as lead time before job failure; operators frame
// it as mean time-to-detect. Intervals with no hit count as missed.
type LatencyReport struct {
	Detected int
	Missed   int
	// Latencies holds one entry per detected interval, in interval order.
	Latencies []time.Duration
}

// DetectionLatencies walks the label stream's maximal true runs and
// measures the delay to the first positive prediction inside each, in
// samples converted through step (seconds per sample). Ignored samples
// split runs the same way the evaluation protocol does.
func DetectionLatencies(pred, label, ignore []bool, step int64) LatencyReport {
	var rep LatencyReport
	n := len(label)
	for i := 0; i < n; {
		if !label[i] || skip(ignore, i) {
			i++
			continue
		}
		j := i
		hit := -1
		for j < n && label[j] && !skip(ignore, j) {
			if hit < 0 && pred[j] {
				hit = j
			}
			j++
		}
		if hit < 0 {
			rep.Missed++
		} else {
			rep.Detected++
			rep.Latencies = append(rep.Latencies, time.Duration(int64(hit-i)*step)*time.Second)
		}
		i = j
	}
	return rep
}
