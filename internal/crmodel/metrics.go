package crmodel

import "pckpt/internal/cluster"

// observeCluster installs a cluster observer maintaining the
// vulnerable-node population gauge. Only called when metering is on, so
// the unmetered hot path keeps a nil observer (one branch per
// transition, nothing more).
func (a *appSim) observeCluster() {
	vuln := 0
	counted := func(s cluster.State) bool {
		return s == cluster.Vulnerable || s == cluster.Migrating
	}
	a.cl.SetObserver(func(id int, from, to cluster.State) {
		if counted(from) {
			vuln--
		}
		if counted(to) {
			vuln++
		}
		a.met.VulnNodes.Set(a.env.Now(), float64(vuln))
	})
}
