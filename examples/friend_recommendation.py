#!/usr/bin/env python3
"""Friend recommendation in a location-aware social network.

The paper's second motivating application: "spatio-textual similarity
search helps mobile users find potential friends with common interests
and overlap regions, and thus facilitates users to form various kinds of
circles."  Each member's profile is an ROI; recommending friends for a
member is a similarity query whose query ROI *is their own profile*.

The script indexes a member base once and then answers recommendation
queries for a few members, comparing the SEAL engine against the naive
scan to show identical results at a fraction of the verification work.

Run:
    python examples/friend_recommendation.py
"""

from __future__ import annotations

from repro import Query, SealSearch, build_method
from repro.datasets import generate_twitter
from repro.geometry import Rect

NUM_MEMBERS = 4_000
SEED = 7


def main() -> None:
    print(f"generating {NUM_MEMBERS} member profiles ...")
    members = generate_twitter(
        NUM_MEMBERS,
        seed=SEED,
        space=Rect(0, 0, 400, 400),
        num_clusters=10,
        cluster_spread_fraction=0.03,
    )

    engine = SealSearch(
        ((m.region, m.tokens) for m in members), method="seal", mt=16, max_level=7
    )
    naive = build_method(members, "naive", engine.weighter)

    # Spatial Jaccard between two user MBRs is harsh (a tiny region
    # nested inside a big one scores near zero), so recommendation walks
    # a threshold schedule from picky to permissive and stops at the
    # first level with enough suggestions — the flexibility the paper's
    # two-threshold query model is designed for.
    schedule = [(0.10, 0.20), (0.05, 0.15), (0.02, 0.10), (0.005, 0.05), (0.001, 0.02)]

    # Demo a few members with non-degenerate active regions.
    demo_members = [m.oid for m in members if m.region.area > 1.0][:3]
    for member_oid in demo_members:
        me = engine.object(member_oid)
        print(f"\nmember {member_oid}: {len(me.tokens)} interests, "
              f"region {me.region.width:.1f}x{me.region.height:.1f} km")
        for tau_r, tau_t in schedule:
            query = Query(region=me.region, tokens=me.tokens, tau_r=tau_r, tau_t=tau_t)
            result = engine.search_query(query)
            suggestions = [oid for oid in result if oid != member_oid]

            # Cross-check against the exhaustive scan (always identical).
            expected = [oid for oid in naive.search(query) if oid != member_oid]
            assert suggestions == expected

            print(f"  tauR={tau_r:<6} tauT={tau_t:<5} -> {len(suggestions)} friends "
                  f"(verified {result.stats.candidates}/{NUM_MEMBERS}, "
                  f"{1000 * result.stats.total_seconds:.2f} ms)")
            if len(suggestions) >= 3:
                ranked = sorted(
                    suggestions,
                    key=lambda oid: engine.similarities(query, oid),
                    reverse=True,
                )
                for oid in ranked[:3]:
                    sim_r, sim_t = engine.similarities(query, oid)
                    common = sorted(me.tokens & engine.object(oid).tokens)[:4]
                    print(f"    suggest member {oid}: simR={sim_r:.3f} simT={sim_t:.3f} "
                          f"shared {common}")
                break


if __name__ == "__main__":
    main()
