//go:build !linux && !darwin

package vfs

// osFreeBytes reports "unknown" on platforms without Statfs; an
// ENOSPC-degraded log's free-space probe treats unknown as permission
// to attempt a resume.
func osFreeBytes(string) (int64, error) { return -1, nil }
