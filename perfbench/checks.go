package main

import (
	"fmt"
	"hash/fnv"

	"mithra/internal/cluster"
	"mithra/internal/serve"
)

// checkServed verifies one served batch against the offline decisions:
// response i carries request ID base+i, is the classifier's own answer
// (no fail-safe fallback), and equals offline Table.Classify on the same
// input.
func checkServed(bench string, base uint32, resps []serve.DecideResponse, want []bool) error {
	if len(resps) != len(want) {
		return fmt.Errorf("%s: batch at id %d returned %d decisions, want %d", bench, base, len(resps), len(want))
	}
	for i, r := range resps {
		id := base + uint32(i)
		switch {
		case r.ID != id:
			return fmt.Errorf("%s: response %d carries id %d, want %d", bench, i, r.ID, id)
		case r.Fallback:
			return fmt.Errorf("%s: id %d answered by the fail-safe fallback", bench, id)
		case r.Precise != want[i]:
			return fmt.Errorf("%s: id %d served precise=%v, offline Table.Classify says %v", bench, id, r.Precise, want[i])
		}
	}
	return nil
}

// checkOnlineBatch verifies one batch served while fold-ins may land:
// every response is the classifier's answer for its ID, and an input the
// initial table routes precise is served precise (fold-ins only add
// precise routes). served accumulates, per stream position, whether any
// response routed that input precise; checkFinal later requires the
// final table to route all of those precise too.
func checkOnlineBatch(bench string, base uint32, resps []serve.DecideResponse, initial, served []bool) error {
	if len(resps) != len(initial) || len(served) != len(initial) {
		return fmt.Errorf("%s: batch at id %d: %d responses for %d inputs", bench, base, len(resps), len(initial))
	}
	for i, r := range resps {
		id := base + uint32(i)
		switch {
		case r.ID != id:
			return fmt.Errorf("%s: response %d carries id %d, want %d", bench, i, r.ID, id)
		case r.Fallback:
			return fmt.Errorf("%s: id %d answered by the fail-safe fallback", bench, id)
		case initial[i] && !r.Precise:
			return fmt.Errorf("%s: id %d served approximate, but the initial table already routes it precise", bench, id)
		}
		served[i] = served[i] || r.Precise
	}
	return nil
}

// checkFinal closes the online implication chain: every input served
// precise at some point is routed precise by the final table.
func checkFinal(bench string, served, final []bool) error {
	for k := range served {
		if served[k] && !final[k] {
			return fmt.Errorf("%s: stream input %d was served precise, the final table routes it approximate", bench, k)
		}
	}
	return nil
}

// checkMonotone requires the final table's bitset to contain the initial
// one: online fold-ins only ever set bits.
func checkMonotone(bench string, initial, final []byte) error {
	if len(initial) != len(final) {
		return fmt.Errorf("%s: table size changed from %d to %d bytes", bench, len(initial), len(final))
	}
	for i := range initial {
		if lost := initial[i] &^ final[i]; lost != 0 {
			return fmt.Errorf("%s: table byte %d lost bits %08b after fold-in", bench, i, lost)
		}
	}
	return nil
}

// tableDigest fingerprints a set of tables (FNV-1a over their raw bits,
// in the given order).
func tableDigest(raws [][]byte) string {
	h := fnv.New64a()
	for _, r := range raws {
		h.Write(r) //nolint:errcheck // hash.Hash never errors
	}
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// checkDecisionLog merges the nodes' decision logs and compares each
// benchmark's merged decision set with the offline replay: same length
// (no lost trailing record), no ID gap (MergeDecisionLogs rejects gaps)
// and the same digest.
func checkDecisionLog(paths []string, want []*serve.DecisionSet) error {
	sets, skipped, err := cluster.MergeDecisionLogs(paths)
	if err != nil {
		return fmt.Errorf("merge decision logs: %w", err)
	}
	if len(skipped) != 0 {
		return fmt.Errorf("decision logs have torn blocks: %v", skipped)
	}
	for _, ref := range want {
		bench := ref.Bench
		got := sets[bench]
		if got == nil {
			return fmt.Errorf("%s: no decision records", bench)
		}
		if got.Len() != ref.Len() {
			return fmt.Errorf("%s: decision log holds %d records, %d decisions were served", bench, got.Len(), ref.Len())
		}
		if got.Digest() != ref.Digest() {
			return fmt.Errorf("%s: merged decision digest %s != offline replay %s", bench, got.Digest(), ref.Digest())
		}
	}
	return nil
}
