package jini

import "repro/internal/netsim"

// registered reports whether the Manager currently holds a registration.
func (r *Registry) registered(manager netsim.NodeID) bool {
	_, ok := r.registrations.Get(manager)
	return ok
}

// cachedVersion reports the cached description version for a Manager.
func (u *User) cachedVersion(manager netsim.NodeID) uint64 {
	rec, ok := u.cache.Get(manager)
	if !ok {
		return 0
	}
	return rec.SD.Version()
}
