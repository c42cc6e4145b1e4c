// Command tgminer mines discriminative temporal graph patterns from a
// positive and a negative dataset file, printing the top behavior queries.
//
// Usage:
//
//	tgminer -pos data/sshd-login.tg -neg data/background.tg -size 6 -top 5
//	tgminer -pos p.tg -neg n.tg -algo prunevf2 -score g-test -stats
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tgminer"
)

func main() {
	posPath := flag.String("pos", "", "positive (behavior) dataset file")
	negPath := flag.String("neg", "", "negative (background) dataset file")
	size := flag.Int("size", 6, "behavior query size in edges")
	top := flag.Int("top", 5, "number of queries to print")
	algo := flag.String("algo", "exhaustive", "algorithm: exhaustive (upper bound only; the complete tie set at any worker count), or one of the paper's registry variants tgminer, subprune, supprune, prunegi, prunevf2, linearscan (may miss ties; deterministic at one worker only)")
	scoreName := flag.String("score", "log-ratio", "score function: log-ratio, g-test, info-gain")
	stats := flag.Bool("stats", false, "print mining statistics")
	flag.Parse()

	if *posPath == "" || *negPath == "" {
		fmt.Fprintln(os.Stderr, "tgminer: -pos and -neg are required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*posPath, *negPath, *size, *top, *algo, *scoreName, *stats); err != nil {
		fmt.Fprintln(os.Stderr, "tgminer:", err)
		os.Exit(1)
	}
}

func run(posPath, negPath string, size, top int, algo, scoreName string, stats bool) error {
	dict := tgminer.NewDict()
	pos, err := tgminer.LoadCorpusFile(posPath, dict)
	if err != nil {
		return fmt.Errorf("loading positives: %w", err)
	}
	neg, err := tgminer.LoadCorpusFile(negPath, dict)
	if err != nil {
		return fmt.Errorf("loading negatives: %w", err)
	}
	fmt.Printf("mining %d positive vs %d negative graphs (size=%d, algo=%s, score=%s)\n",
		len(pos.Graphs), len(neg.Graphs), size, algo, scoreName)

	all := append(append([]*tgminer.Graph{}, pos.Graphs...), neg.Graphs...)
	interest := tgminer.NewInterest(all, dict, nil)

	start := time.Now()
	res, err := tgminer.Mine(pos.Graphs, neg.Graphs, tgminer.MineOptions{
		Algorithm: tgminer.Algorithm(algo),
		ScoreFunc: scoreName,
		MaxEdges:  size,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("best score F* = %.4f (%d tied patterns) in %s\n", res.BestScore, res.TieCount, elapsed)

	bq, err := tgminer.DiscoverQueries(pos.Graphs, neg.Graphs, tgminer.QueryOptions{
		QuerySize: size, TopK: top,
		Algorithm: tgminer.Algorithm(algo),
		Interest:  interest,
	})
	if err != nil {
		return err
	}
	for i, q := range bq.Queries {
		fmt.Printf("\nquery #%d (%d edges):\n  %s\n", i+1, q.NumEdges(), tgminer.FormatPattern(q, dict))
	}
	if stats {
		fmt.Printf("\nstats: %s\n", res.Stats)
	}
	return nil
}
