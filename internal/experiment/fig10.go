package experiment

import (
	"fmt"
	"io"

	"prompt/internal/metrics"
	"prompt/internal/partition"
	"prompt/internal/tuple"
)

// Fig10Row is one technique's partitioning quality on one dataset,
// reported the way Figure 10 does: BSI relative to hashing (which gives no
// size guarantee) and BCI relative to shuffle (which gives no key
// guarantee). 0 is perfectly balanced, 1 matches the reference technique.
type Fig10Row struct {
	Technique   string
	RelativeBSI float64
	RelativeBCI float64
	KSR         float64
	MPI         float64
}

// Fig10Result holds the comparison for one dataset.
type Fig10Result struct {
	Dataset string
	Rows    []Fig10Row
}

// Fig10Techniques is the comparison set of Figures 10a-10d.
var Fig10Techniques = []string{"time", "shuffle", "hash", "pk2", "pk5", "cam", "prompt"}

// Fig10 regenerates Figures 10a-10d for one dataset ("tweets" or "tpch" in
// the paper; any registered dataset works): it partitions the same batch
// with every technique and reports the imbalance metrics.
func Fig10(p Params, dataset string) (*Fig10Result, error) {
	batch, err := p.oneBatch(dataset, 1.0)
	if err != nil {
		return nil, err
	}
	in, err := inputFor(batch)
	if err != nil {
		return nil, err
	}
	reg := partition.Registry()

	blocksFor := func(name string) ([]*tuple.Block, error) {
		pt, ok := reg[name]
		if !ok {
			return nil, fmt.Errorf("experiment: unknown technique %q", name)
		}
		blocks, err := pt.Partition(in, p.Blocks)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s on %s: %w", name, dataset, err)
		}
		return blocks, nil
	}

	hashBlocks, err := blocksFor("hash")
	if err != nil {
		return nil, err
	}
	shuffleBlocks, err := blocksFor("shuffle")
	if err != nil {
		return nil, err
	}

	res := &Fig10Result{Dataset: dataset}
	for _, name := range Fig10Techniques {
		blocks, err := blocksFor(name)
		if err != nil {
			return nil, err
		}
		rep := metrics.Evaluate(blocks, metrics.EqualWeights)
		res.Rows = append(res.Rows, Fig10Row{
			Technique:   name,
			RelativeBSI: metrics.RelativeBSI(blocks, hashBlocks),
			RelativeBCI: metrics.RelativeBCI(blocks, shuffleBlocks),
			KSR:         rep.KSR,
			MPI:         rep.MPI,
		})
	}
	return res, nil
}

// Print renders the comparison.
func (r *Fig10Result) Print(w io.Writer) {
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "Figure 10: Data Partitioning Metrics — %s\n", r.Dataset)
	fmt.Fprintln(tw, "technique\tBSI (rel. hashing)\tBCI (rel. shuffle)\tKSR\tMPI")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n",
			row.Technique, fmtF(row.RelativeBSI), fmtF(row.RelativeBCI),
			fmtF(row.KSR), fmtF(row.MPI))
	}
	tw.Flush()
}
