// Command labeltool is the clustering-adjustment and anomaly-labeling tool
// of the paper's artifact A₂, reimplemented as a CLI plus an HTTP UI
// (stdlib only) instead of the original Tkinter desktop app.
//
// Serve the UI:
//
//	labeltool -data ./data/d1 -workdir ./session -http :8080
//
// Or drive it from the command line:
//
//	labeltool -data ./data/d1 -workdir ./session label cn-0001 173000 174000
//	labeltool -data ./data/d1 -workdir ./session cancel cn-0001 173000 173500
//	labeltool -data ./data/d1 -workdir ./session suggest cn-0001
//	labeltool -data ./data/d1 -workdir ./session clusters
//	labeltool -data ./data/d1 -workdir ./session move 3 1
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/url"
	"os"
	"strconv"

	"nodesentry"
	"nodesentry/internal/labeling"
	"nodesentry/internal/mts"
)

func main() {
	data := flag.String("data", "", "dataset directory (required)")
	workdir := flag.String("workdir", "./labelsession", "session directory for labels and cluster files")
	httpAddr := flag.String("http", "", "serve the web UI on this address instead of running a CLI command")
	sentrydURL := flag.String("sentryd", "", "base URL of a running sentryd -obs-listen endpoint; proxies its /fleet/ dashboard into this UI")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if *data == "" {
		fmt.Fprintln(os.Stderr, "labeltool: -data is required")
		os.Exit(2)
	}
	ds, err := nodesentry.ImportDataset(*data)
	if err != nil {
		fatal("load dataset", "dir", *data, "err", err)
	}
	store, err := labeling.Load(*workdir)
	if err != nil {
		fatal("load session", "workdir", *workdir, "err", err)
	}
	tool := newTool(ds, store, *workdir)
	if *sentrydURL != "" {
		u, err := url.Parse(*sentrydURL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			fatal("bad -sentryd URL", "url", *sentrydURL, "err", err)
		}
		tool.fleet = u
	}

	if *httpAddr != "" {
		logger.Info("serving", "addr", *httpAddr, "data", *data, "session", *workdir)
		if err := tool.serve(*httpAddr); err != nil {
			fatal("serve", "err", err)
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "labeltool: command required: list | label | cancel | suggest | clusters | move | save")
		os.Exit(2)
	}
	if err := tool.runCLI(args); err != nil {
		fatal("command failed", "cmd", args[0], "err", err)
	}
}

func (t *tool) runCLI(args []string) error {
	switch args[0] {
	case "list":
		for _, node := range t.ds.Nodes() {
			ivs := t.store.Labels()[node]
			fmt.Printf("%-10s %d labeled intervals\n", node, len(ivs))
			for _, iv := range ivs {
				fmt.Printf("  [%d, %d)\n", iv.Start, iv.End)
			}
		}
		return nil
	case "label", "cancel":
		if len(args) != 4 {
			return fmt.Errorf("%s needs: node start end", args[0])
		}
		start, err1 := strconv.ParseInt(args[2], 10, 64)
		end, err2 := strconv.ParseInt(args[3], 10, 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad interval %q %q", args[2], args[3])
		}
		iv := mts.Interval{Start: start, End: end}
		if args[0] == "label" {
			if err := t.store.Label(args[1], iv); err != nil {
				return err
			}
		} else {
			t.store.Cancel(args[1], iv)
		}
		return t.save()
	case "suggest":
		if len(args) != 2 {
			return fmt.Errorf("suggest needs: node")
		}
		for _, s := range t.suggest(args[1]) {
			fmt.Printf("%s [%d, %d) peak=%.2f via %s\n", s.Node, s.Span.Start, s.Span.End, s.Score, s.Method)
		}
		return nil
	case "clusters":
		cs, err := t.clusters()
		if err != nil {
			return err
		}
		labels := cs.Labels()
		fmt.Printf("%d clusters over %d segments (silhouette %.3f, %d adjusted)\n",
			cs.NumClusters(), len(labels), cs.Silhouette(), cs.Adjusted())
		for i, seg := range cs.Segments {
			fmt.Printf("  #%-3d %-10s job=%-6d len=%-5d cluster=%d\n", i, seg.Node, seg.Job, seg.Len(), labels[i])
		}
		return nil
	case "move":
		if len(args) != 3 {
			return fmt.Errorf("move needs: segmentIndex cluster")
		}
		i, err1 := strconv.Atoi(args[1])
		c, err2 := strconv.Atoi(args[2])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad arguments")
		}
		cs, err := t.clusters()
		if err != nil {
			return err
		}
		if err := cs.Move(i, c); err != nil {
			return err
		}
		fmt.Printf("moved segment %d to cluster %d (silhouette now %.3f)\n", i, c, cs.Silhouette())
		return cs.Save(t.workdir)
	case "save":
		return t.save()
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}
