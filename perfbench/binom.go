package main

import (
	"fmt"
	"math"

	"mithra/internal/stats"
	"mithra/internal/threshold"
)

// binomTail is P(X >= s) for X ~ Binomial(n, p), summed term by term in
// log space. It is written here, apart from internal/stats and
// internal/mathx, so the benchmark checks the compiler's certificates
// with code that shares nothing with the code that issued them.
func binomTail(s, n int, p float64) float64 {
	switch {
	case s <= 0:
		return 1
	case s > n:
		return 0
	case p <= 0:
		return 0
	case p >= 1:
		return 1
	}
	lgN, _ := math.Lgamma(float64(n + 1))
	lp, lq := math.Log(p), math.Log1p(-p)
	sum := 0.0
	for k := s; k <= n; k++ {
		lk, _ := math.Lgamma(float64(k + 1))
		lnk, _ := math.Lgamma(float64(n - k + 1))
		sum += math.Exp(lgN - lk - lnk + float64(k)*lp + float64(n-k)*lq)
	}
	return math.Min(sum, 1)
}

// certifies is the exact one-sided binomial test behind a Clopper-Pearson
// certificate: s successes in n trials certify a success rate of at
// least g.SuccessRate at level L exactly when observing s or more
// successes would have probability at most 1-L were the rate only
// g.SuccessRate. L is the confidence, or 1-(1-confidence)/2 under the
// two-sided convention.
func certifies(s, n int, g stats.Guarantee) bool {
	level := g.Confidence
	if g.TwoSided {
		level = 1 - (1-g.Confidence)/2
	}
	return s > 0 && binomTail(s, n, g.SuccessRate) <= 1-level
}

// checkCertificate re-derives a threshold search's certificate: the
// success count must match the per-dataset qualities it summarizes, and
// the independent binomial verdict must match Certified, which must hold
// for a deployment that compiled.
func checkCertificate(bench string, res threshold.Result, g stats.Guarantee) error {
	if res.Trials != len(res.Qualities) {
		return fmt.Errorf("%s: certificate counts %d trials over %d datasets", bench, res.Trials, len(res.Qualities))
	}
	met := 0
	for _, q := range res.Qualities {
		if q <= g.QualityLoss {
			met++
		}
	}
	if met != res.Successes {
		return fmt.Errorf("%s: certificate claims %d/%d successes, the dataset qualities give %d",
			bench, res.Successes, res.Trials, met)
	}
	if v := certifies(res.Successes, res.Trials, g); v != res.Certified {
		return fmt.Errorf("%s: %d/%d certified=%v, exact binomial test says %v (tail %.6g)",
			bench, res.Successes, res.Trials, res.Certified, v, binomTail(res.Successes, res.Trials, g.SuccessRate))
	}
	if !res.Certified {
		return fmt.Errorf("%s: deployment compiled without a certificate", bench)
	}
	return nil
}
