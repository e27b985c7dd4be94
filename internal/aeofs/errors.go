package aeofs

import "errors"

// File system errors (POSIX-flavored).
var (
	ErrExist     = errors.New("aeofs: file exists")
	ErrNotExist  = errors.New("aeofs: no such file or directory")
	ErrNotDir    = errors.New("aeofs: not a directory")
	ErrIsDir     = errors.New("aeofs: is a directory")
	ErrNotEmpty  = errors.New("aeofs: directory not empty")
	ErrInvalid   = errors.New("aeofs: invalid argument")
	ErrAccess    = errors.New("aeofs: permission denied")
	ErrNoSpace   = errors.New("aeofs: no space left on device")
	ErrNoInodes  = errors.New("aeofs: out of inodes")
	ErrBadFD     = errors.New("aeofs: bad file descriptor")
	ErrLoop      = errors.New("aeofs: rename would create a cycle")
	ErrIntegrity = errors.New("aeofs: metadata integrity violation")
	ErrCorrupt   = errors.New("aeofs: on-disk metadata corrupt")
	ErrRange     = errors.New("aeofs: offset out of range")
)
