"""C1 / §3: "source-domain-based signalling may be faster than hop-by-hop
based signalling, because the reservations for each domain can be made in
parallel."

Sweep the path length from 2 to 10 domains and compare the modelled
end-to-end signalling latency and message counts of the three approaches:

* hop-by-hop (Approach 2) — latency grows with the *sum* of channel RTTs;
* source-domain sequential — also a sum, over direct channels;
* source-domain concurrent — the *maximum* of the per-domain RTTs, flat
  in the path length.

Asserted shape: concurrent < hop-by-hop for every path length >= 3, and
the hop-by-hop latency grows linearly while concurrent stays flat.
"""

import pytest

from repro.core.testbed import build_linear_testbed

PATH_LENGTHS = [2, 4, 6, 8, 10]


def run_sweep():
    rows = []
    for k in PATH_LENGTHS:
        domains = [f"D{i}" for i in range(k)]
        tb = build_linear_testbed(domains, hosts_per_domain=1)
        alice = tb.add_user(domains[0], "Alice")
        for d in domains[1:]:
            tb.introduce_user_to(alice, d)
        request = tb.make_request(
            source=domains[0], destination=domains[-1], bandwidth_mbps=1.0
        )

        hop = tb.hop_by_hop.reserve(alice, request)
        tb.hop_by_hop.cancel(hop)
        seq = tb.end_to_end_agent.reserve(alice, request)
        tb.end_to_end_agent.release(seq)
        par = tb.end_to_end_agent.reserve(alice, request, concurrent=True)
        tb.end_to_end_agent.release(par)
        assert hop.granted and seq.complete and par.complete
        rows.append(
            {
                "domains": k,
                "hop_latency": hop.latency_s,
                "seq_latency": seq.latency_s,
                "par_latency": par.latency_s,
                "hop_messages": hop.messages,
                "seq_messages": seq.messages,
            }
        )
    return rows


def test_c1_latency_sweep(benchmark, report):
    rows = benchmark.pedantic(run_sweep, rounds=3, iterations=1)
    report.append("C1: signalling latency model vs path length (ms)")
    report.append("  domains  hop-by-hop  seq-agent  conc-agent  "
                  "hop-msgs  seq-msgs")
    for row in rows:
        report.append(
            f"  {row['domains']:>7d}  {row['hop_latency'] * 1e3:>10.1f}"
            f"  {row['seq_latency'] * 1e3:>9.1f}"
            f"  {row['par_latency'] * 1e3:>10.1f}"
            f"  {row['hop_messages']:>8d}  {row['seq_messages']:>8d}"
        )
    # The paper's claim: parallel source-domain contact wins.
    for row in rows:
        if row["domains"] >= 3:
            assert row["par_latency"] < row["hop_latency"]
    # Hop-by-hop grows ~linearly; concurrent stays flat.
    assert rows[-1]["hop_latency"] > 3 * rows[0]["hop_latency"]
    assert rows[-1]["par_latency"] == pytest.approx(
        rows[0]["par_latency"], rel=0.2
    )
    # Message counts are identical in total (2 per domain).
    for row in rows:
        assert row["hop_messages"] == row["seq_messages"] == 2 * row["domains"]


@pytest.mark.no_metrics
def test_c1_hop_by_hop_wallclock(benchmark):
    """Actual wall-clock cost of one hop-by-hop reservation on an
    8-domain chain (crypto + policy + admission, simulated scheme).

    Marked ``no_metrics``: this measures the *disabled-observability*
    hot path, which must stay within noise of the uninstrumented code
    (the ISSUE 1 overhead criterion)."""
    domains = [f"D{i}" for i in range(8)]
    tb = build_linear_testbed(domains, hosts_per_domain=1)
    alice = tb.add_user("D0", "Alice")
    request = tb.make_request(source="D0", destination="D7", bandwidth_mbps=1.0)

    def run():
        outcome = tb.hop_by_hop.reserve(alice, request)
        tb.hop_by_hop.cancel(outcome)
        return outcome

    assert benchmark(run).granted
