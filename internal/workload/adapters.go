package workload

import (
	"aeolia/internal/aeodriver"
	"aeolia/internal/nvme"
	"aeolia/internal/sim"
)

// DriverIO adapts AeoDriver to BlockIO: Aeolia, or any baseline stack
// configured as a driver.
type DriverIO struct {
	Driver *aeodriver.Driver
}

var _ BlockIO = (*DriverIO)(nil)

// Init implements BlockIO.
func (d *DriverIO) Init(env *sim.Env) error {
	_, err := d.Driver.CreateQP(env)
	return err
}

// Read implements BlockIO.
func (d *DriverIO) Read(env *sim.Env, lba uint64, cnt uint32, buf []byte) error {
	return d.Driver.ReadBlk(env, lba, cnt, buf)
}

// Write implements BlockIO.
func (d *DriverIO) Write(env *sim.Env, lba uint64, cnt uint32, buf []byte) error {
	return d.Driver.WriteBlk(env, lba, cnt, buf)
}

// SubmitRead implements BlockIO.
func (d *DriverIO) SubmitRead(env *sim.Env, lba uint64, cnt uint32, buf []byte) (func(*sim.Env) error, error) {
	req, err := d.Driver.Submit(env, nvme.OpRead, lba, cnt, buf, false)
	if err != nil {
		return nil, err
	}
	return func(env *sim.Env) error { return d.Driver.Wait(env, req) }, nil
}

// SubmitWrite implements BlockIO.
func (d *DriverIO) SubmitWrite(env *sim.Env, lba uint64, cnt uint32, buf []byte) (func(*sim.Env) error, error) {
	req, err := d.Driver.Submit(env, nvme.OpWrite, lba, cnt, buf, false)
	if err != nil {
		return nil, err
	}
	return func(env *sim.Env) error { return d.Driver.Wait(env, req) }, nil
}
