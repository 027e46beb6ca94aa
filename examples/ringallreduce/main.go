// Ring Allreduce: the collective of Figure 2 / §5.4.1 on a cluster of
// GPU nodes, comparing all four evaluated backends. The GPU-TN version
// executes the *entire* collective inside one persistent kernel: every
// round's send is a pre-registered triggered put fired by a tag store, and
// the kernel polls a counting event to learn when the neighbour's chunk
// has landed.
package main

import (
	"fmt"
	"log"

	"repro/internal/backends"
	"repro/internal/collective"
	"repro/internal/config"
	"repro/internal/node"
)

func main() {
	const nodesN = 8
	const elems = 4096

	// Real per-rank vectors so we can verify the reduction end to end.
	data := make([][]float32, nodesN)
	want := make([]float32, elems)
	for r := range data {
		data[r] = make([]float32, elems)
		for i := range data[r] {
			data[r][i] = float32((r*7 + i) % 23)
			want[i] += data[r][i]
		}
	}

	fmt.Printf("ring Allreduce, %d nodes, %d fp32 elements per rank\n\n", nodesN, elems)
	for _, kind := range backends.All() {
		cluster := node.NewCluster(config.Default(), nodesN)
		res, err := collective.Run(cluster, collective.Config{
			Kind:       kind,
			TotalBytes: elems * 4,
			Data:       data,
		})
		if err != nil {
			log.Fatal(err)
		}
		// Every rank must hold the exact element-wise sum.
		for r := 0; r < nodesN; r++ {
			for i := range want {
				if res.Output[r][i] != want[i] {
					log.Fatalf("%s: rank %d elem %d: got %v want %v",
						kind, r, i, res.Output[r][i], want[i])
				}
			}
		}
		fmt.Printf("%-7s completed in %9v  (all %d ranks verified)\n", kind, res.Duration, nodesN)
	}

	fmt.Println("\nStrong-scale this (more nodes, same payload) and the kernel-boundary")
	fmt.Println("backends fall behind: run `gputn-bench -exp fig10` for Figure 10.")
}
