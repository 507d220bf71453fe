"""Seeded streams: every draw takes its generator from domains._stream
under one key of the table in the domains docstring, no two call sites
share a (seed, key), and the bits of each consumer's draw are pinned."""

import sys

import numpy as np

from blochkit import (SamplingConfig, ball, boundedness_verdict, compactness_verdict,
                      coordinate, disk, empirical_opnorm_lower, isometry_verdict,
                      lipschitz_beta_estimate, norm_bounds, polydisk, product,
                      q_value_oracle, run_probe, sample_interior,
                      sample_near_distinguished_boundary, spectrum_cloud)
from blochkit import bloch, domains
from blochkit.operators import _battery


def _hexes(a):
    return [float.hex(float(x)) for c in np.ravel(a) for x in (c.real, c.imag)]


def test_no_stream_is_built_from_two_call_sites(monkeypatch):
    # a (seed, key) names one stream; built from two places, two draws
    # that claim to be independent read the same numbers. A band sampler
    # draws its roles on the keys that _stratified hands it, so the site
    # of a band's stream is the line of _stratified that called the band
    sites = {}

    def recording(fn):
        def wrapper(seed, *key):
            caller = sys._getframe(1)
            while caller.f_code.co_name.endswith("band"):
                caller = caller.f_back
            sites.setdefault((seed, key), set()).add(
                (caller.f_code.co_name, caller.f_lineno))
            return fn(seed, *key)
        return wrapper

    for name in ("_stream", "_stream_seed"):
        real = getattr(domains, name)
        for mod in [m for k, m in sys.modules.items() if k.startswith("blochkit")]:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, recording(real))
    domains._draw.cache_clear()
    bloch._base_directions.cache_clear()

    cfg = SamplingConfig(samples=200, seed=42, refine_restarts=1, refine_iters=5)
    for d in (ball(2), polydisk(2), product(ball(2), disk())):
        psi = coordinate(1, d.ambient_dim)
        norm_bounds(d, psi, cfg)
        empirical_opnorm_lower(d, psi, cfg, nfuncs=6)
        lipschitz_beta_estimate(d, psi, npairs=20)
        boundedness_verdict(d, psi, cfg, space="B0*")
        spectrum_cloud(d, psi, cfg)
        compactness_verdict(d, psi, cfg)
        isometry_verdict(d, psi, cfg)
        q_value_oracle(d, psi, np.full(d.ambient_dim, 0.2 + 0.1j), seed=0)
        if not d.factors:
            run_probe("omega0-blowup", d, cfg)

    callers = {name for where in sites.values() for name, _ in where}
    assert {"_stratified", "sample_near_distinguished_boundary", "_battery",
            "lipschitz_beta_estimate", "_base_directions",
            "q_value_oracle"} <= callers
    shared = {k: sorted(v) for k, v in sites.items() if len(v) > 1}
    assert not shared, f"streams built from two call sites: {shared}"


def test_streams_keep_their_bits(monkeypatch):
    # one draw per consumer, pinned to the float.hex of the values it drew
    # before the derivations were routed through domains._stream
    assert _hexes(sample_interior(ball(2), 7, 42)[0]) == [
        "-0x1.4f43444e4db4ap-5", "0x1.e4f82179b0198p-3",
        "0x1.eb7c58d6bcf05p-3", "-0x1.02abcbc6954fcp-2"]
    assert _hexes(sample_interior(product(ball(2), disk()), 5, 42)[-1]) == [
        "0x1.aff2d7276c4d1p-1", "0x1.93eae00256541p-2",
        "-0x1.5ba56626f2282p-2", "-0x1.03d995a05e0f7p-3",
        "0x1.df107e69d12edp-5", "0x1.fea6760c57c15p-1"]
    assert _hexes(sample_near_distinguished_boundary(polydisk(2), 3, 0.1, 42)[0]) == [
        "-0x1.96e0e9cf0b8d6p-1", "0x1.b09a864a7fa79p-2",
        "0x1.c94eb3d6c82fep-1", "-0x1.c502ef9c3e235p-4"]
    battery = [c for f, _ in _battery(ball(2), 6, 42)[3:] for _, c in f.terms]
    assert _hexes(battery) == [
        "-0x1.9c50f9280cb41p-1", "0x1.6284b85b642f8p-1",
        "-0x1.d0756baff2c5ap+0", "-0x1.bd7563d1df3ddp-5",
        "-0x1.263d205d89e4bp-1", "-0x1.588e14c33cc8ap-7",
        "0x1.91e9264fc5394p-3", "-0x1.e74bd49a604e4p-3",
        "-0x1.644c26e88d961p-1", "-0x1.1112479485951p-1",
        "-0x1.5730630026294p+1", "-0x1.94676ebd29f15p-1",
        "-0x1.89c88392b349bp-1", "-0x1.ee8cb1bcc0571p-4",
        "-0x1.7b232febb49ccp+0", "-0x1.bef3a11d74383p-2"]

    drawn = []

    def spy(d, n, seed, *rest):
        drawn.append((seed, sample_interior(d, n, seed, *rest)))
        return drawn[-1][1]

    monkeypatch.setattr(bloch, "sample_interior", spy)
    lipschitz_beta_estimate(ball(2), coordinate(1, 2), npairs=5, seed=42)
    seed, B = drawn[1]
    assert seed == 3479688010
    assert _hexes(B[0]) == ["0x1.8c360f9341cfcp-8", "0x1.216024c631be6p-3",
                            "0x1.1ced036892dd2p-3", "0x1.beacab373f66bp-4"]
    bloch._base_directions.cache_clear()
    assert _hexes(bloch._base_directions(4, 2)[0]) == [
        "0x1.7dfc8f62257ccp-3", "0x1.e66c92ebb9199p-1",
        "-0x1.915a888d9c538p-3", "0x1.3eb3a29b3ad61p-3"]
