"""Seeded mutants of the program, each with the tests that must kill it.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named ones

Each mutant replaces one text, which must occur exactly once, in one file of
a fresh copy of `src/`, and runs its test selection against that copy.  The
run fails when a selection fails on the unmutated copy, or passes on its
mutant: a surviving mutant is a blind spot of the tests.  Answer one with a
new test, never by changing a test's data or bounds.  A mutant's name is
printed before its selection runs, and a selection that outlives its
timeout is stopped and reported as timed out, so a mutant that hangs is
named.

Pytest does not collect this file, since its name does not start with
`test_`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# CI runs the whole harness as one step limited to 3 minutes.  On 2 shared
# cores the unmutated selections take about 35 s and each mutant 0.7-1.3 s,
# so a hung run, cut at its timeout, still leaves the step time to name it.
BASELINE_TIMEOUT_S = 100
TIMEOUT_S = 30


class Mutant(NamedTuple):
    name: str
    file: str               # under src/heegaard_lab
    old: str
    new: str
    selection: tuple        # pytest node ids, relative to the repo root
    breaks: str             # what the mutant gets wrong


ARR = "tests/test_arrangement.py::"
CLI = "tests/test_cli.py::"
DC = "tests/test_disk_complex.py::"
GHS = "tests/test_ghs.py::"
HB = "tests/test_handlebody.py::"
SOG = "tests/test_sog.py::"
SURF = "tests/test_surface.py::"

MUTANTS = [
    Mutant("link-coords-orientation", "arrangement.py",
           "            if tri.plus_triangle[e] == t:\n",
           "            if tri.plus_triangle[e] != t:\n",
           (ARR + "test_engine_handles_swept_representatives",),
           "places along an edge are read against the triangle's "
           "orientation"),
    Mutant("region-walk-orientation", "arrangement.py",
           "reverse=s < 0", "reverse=s > 0",
           (ARR + "test_isotopic_on_torus",),
           "the region walk meets each side's tokens against the triangle's "
           "orientation"),
    Mutant("region-walk-no-vertex", "arrangement.py",
           "    chis[region_of[gap_faces[0, 0][0]]] += 1\n", "",
           (ARR + "test_same_class_matches_isotopic_inside_and_across_"
                  "buckets",),
           "the region that holds the vertex loses the vertex's 1 in its "
           "Euler characteristic"),
    Mutant("region-walk-nesting-by-curve", "arrangement.py",
           "                if stack[-1][1] == link:\n",
           "                if (stack[-1][1] or (None,))[0] == link[0]:\n",
           (ARR + "test_same_class_matches_isotopic_inside_and_across_"
                  "buckets",),
           "a link end closes the top of the stack when only the curve ids "
           "match"),
    Mutant("slide-orientation", "arrangement.py",
           "left_after = tri.plus_triangle[e] == t",
           "left_after = tri.plus_triangle[e] != t",
           (ARR + "test_engine_matches_determinant_on_torus",),
           "a slide puts the new A tokens on the bigon's side of B"),
    Mutant("greatest-bigon", "arrangement.py",
           "if best is None or key < best[0]:",
           "if best is None or key > best[0]:",
           (ARR + "test_minimize_matches_planar_map_reference",),
           "minimization slides the bigon with the greatest corner keys"),
    Mutant("algebraic-minimality-slack", "arrangement.py",
           "return all(len(run) == abs(sum(x.sign for _, _, x in run))",
           "return all(len(run) <= abs(sum(x.sign for _, _, x in run)) + 2",
           (ARR + "test_genus2_intersections_certified_by_homology",),
           "minimization stops two crossings above the algebraic count"),
    Mutant("runs-by-place-only", "arrangement.py",
           "        run.sort()\n",
           "        run.sort(key=lambda r: r[1])\n",
           (HB + "test_boundary_words_golden",),
           "crossings along a curve are ordered by place, ignoring the link"),
    Mutant("no-vertex-link-bigon", "arrangement.py",
           "    return any(w[k:] + w[:k] in (link, link[::-1]) "
           "for k in range(len(w)))\n",
           "    return False\n",
           (ARR + "test_vertex_link_bigons_reach_minimal_position",
            ARR + "test_bigon_around_the_vertex"),
           "a bigon that swallows the vertex is never slid"),
    Mutant("free-reduce-no-wrap", "arrangement.py",
           "while i < j and w[i] == inverse(w[j]):",
           "while False and w[i] == inverse(w[j]):",
           (HB + "test_signed_word_reduction_matches_oracle",),
           "cyclic reduction leaves inverse pairs across the wrap"),
    Mutant("prefilter-off-by-one", "surface.py",
           "        if k is not None and n > k:\n",
           "        if k is not None and n >= k:\n",
           (ARR + "test_minimize_certificate_leaves_no_bigon",),
           "pairs with |a . b| = k are answered as meeting more than k "
           "times"),
    Mutant("no-parity-return", "surface.py",
           "            if step == 2 and (t_lo - lo) % 2:\n"
           "                return range(0)\n",
           "",
           (SURF + "test_admissible_vectors_match_reference_dfs",),
           "an edge closing two triangles of different parities gets "
           "weights"),
    Mutant("same-class-bucket-inverted", "surface.py",
           "    if a._bucket != b._bucket:\n",
           "    if a._bucket == b._bucket:\n",
           (SURF + "test_same_class_between_pushoff_sides",),
           "classes in one homology bucket are never isotopic"),
    Mutant("isotopy-lemma-at-genus-3", "surface.py",
           "    if a.genus == 2:\n",
           "    if a.genus in (2, 3):\n",
           (ARR + "test_same_class_matches_isotopic_inside_and_across_"
                  "buckets",),
           "disjoint genus-3 curves in one bucket are taken for isotopic"),
    Mutant("isotopy-lemma-link-unguarded", "surface.py",
           "        return link not in (a.coords, b.coords) and \\\n"
           "            _intersection(a, b, 0) is not None\n",
           "        return _intersection(a, b, 0) is not None\n",
           (HB + "test_vertex_link_is_no_copy_of_a_separating_curve",),
           "the vertex link is isotopic to every separating curve"),
    # k = 1, 2 or 3 would be equivalent mutants: the genus-2 classes of one
    # bucket up to cap 20 meet 0, 4 or 8 times, never 1, 2 or 3.
    Mutant("isotopy-lemma-k4", "surface.py",
           "_intersection(a, b, 0) is not None",
           "_intersection(a, b, 4) is not None",
           (ARR + "test_same_class_matches_isotopic_inside_and_across_"
                  "buckets",),
           "curves of one bucket meeting four times are taken for "
           "isotopic"),
    Mutant("normal-sum-never-fires", "surface.py",
           "settled = counts == {a.coords: 1, b.coords: 1}",
           "settled = counts == {}",
           (SURF + "test_disjointness_certificate_sound_and_complete",),
           "disjoint pairs always run the arrangement"),
    Mutant("normal-sum-any-two", "surface.py",
           "settled = counts == {a.coords: 1, b.coords: 1}",
           "settled = sum(counts.values()) == 2",
           (SURF + "test_disjointness_certificate_sound_and_complete",),
           "any sum of two components is taken for a disjoint pair"),
    Mutant("blocks-always-fire", "surface.py",
           "    return any(solvable(hard + [u for u in units if u is not drop])",
           "    return True or any(solvable(hard + [u for u in units "
           "if u is not drop])",
           (SURF + "test_block_certificate_matches_exhaustive_minimum",),
           "every pair with |a . b| <= 1 is taken to meet |a . b| times"),
    # The certificate only saves work, so the arrangement counts catch it.
    Mutant("blocks-never-fire", "surface.py",
           "    return any(solvable(hard + [u for u in units if u is not drop])",
           "    return False and any(solvable(hard + [u for u in units "
           "if u is not drop])",
           (DC + "test_twisted_lambda_arrangement_counts",),
           "every pair the block layout settles runs the arrangement"),
    Mutant("blocks-off-by-one", "surface.py",
           "(hard if w > k else units).append(cond)",
           "(hard if w > k + 1 else units).append(cond)",
           (SURF + "test_block_certificate_matches_exhaustive_minimum",),
           "a corner crossing twice may be dropped as if it crossed once"),
    Mutant("torus-closed-form-multiplicity", "surface.py",
           "return k, m, (a // m, b // m, d // m) if m else ()",
           "return k, min(m, 1), (a, b, d) if m else ()",
           (SURF + "test_torus_closed_form_matches_trace",),
           "parallel torus copies are taken for one curve carrying their "
           "sum"),
    Mutant("torus-split-link-uncounted", "surface.py",
           "    if k + m != 1:\n",
           "    if m != 1:\n",
           (SURF + "test_torus_classes_are_checked_once",),
           "the vertex link is not counted as a component of a torus "
           "vector"),
    Mutant("corner-inequality-dropped", "surface.py",
           "if c0 < 0 or c1 < 0 or c2 < 0:",
           "if c0 < 0 or c1 < 0:",
           (SURF + "test_matching_check_matches_reference[1]",),
           "a triangle whose corner 2 would hold a negative count passes "
           "the matching check"),
    Mutant("torus-rung-link-unchecked-b", "surface.py",
           "_torus_slope(b.coords)",
           "_torus_class(b.coords)",
           (SURF + "test_torus_rung_errors_match_reference",),
           "the torus rung meets the vertex link as its second curve "
           "0 times instead of refusing it"),
    Mutant("slope-class-wrong-order", "surface.py",
           '_setattr(c, "coords", coords)',
           '_setattr(c, "coords", (coords[1], coords[0], coords[2]))',
           (SURF + "test_unchecked_slope_classes_equal_checked_ones",),
           "an unchecked torus class stores (|p|, |q|, |p - q|), the "
           "vector of the slope (q, p)"),
    Mutant("automorphism-entries-swapped", "surface.py",
           "        return sorted(filter(None, map(spread, flags)))\n",
           "        found = sorted(filter(None, map(spread, flags)))\n"
           "        p = list(found[-1])\n"
           "        p[0], p[1] = p[1], p[0]\n"
           "        return found[:-1] + [tuple(p)]\n",
           (SURF + "test_automorphisms_keep_intersection_numbers",),
           "the last automorphism has two edges' images swapped"),
    Mutant("farey-walk-stops-short", "disk_complex.py",
           "if w <= cap]",
           "if w < cap]",
           (DC + "test_farey_edges_match_pair_loop[S3]",),
           "the mediant walk never reaches the slopes of weight equal to "
           "the cap"),
    Mutant("farey-prune-eager", "disk_complex.py",
           "if s0 <= m0 and s1 <= m1 and s2 <= m2:",
           "if s0 < m0 and s1 < m1 and s2 < m2:",
           (DC + "test_farey_edges_match_pair_loop[S3]",),
           "the walk skips a tile whose slope reaches a bound"),
    Mutant("farey-heavy-rows-dropped", "disk_complex.py",
           "        if w > cap:\n",
           "        if False:\n",
           (DC + "test_farey_edges_match_pair_loop_on_partial_lists",),
           "a meridian heavier than the cap is joined to nothing"),
    Mutant("farey-adjacency-one-end", "disk_complex.py",
           "        adj.setdefault(v, []).append(u)\n",
           "",
           (DC + "test_farey_edges_match_pair_loop[S3]",),
           "a torus Λ edge is listed among the neighbours of its first end "
           "only"),
    Mutant("search-levels-off-by-one", "disk_complex.py",
           "    d = 0\n",
           "    d = 1\n",
           (DC + "test_search_matches_one_sided_reference",),
           "every distance found by the search is one too long"),
    Mutant("search-meets-one-side", "disk_complex.py",
           "                if z in other:\n",
           "                if z in other and not side:\n",
           (DC + "test_search_matches_one_sided_reference",),
           "the targets' side walks past the sources' labels"),
    Mutant("table-filter-off-by-one", "disk_complex.py",
           "self._classes[:bisect_right(self._weights, cap)]",
           "self._classes[:bisect_right(self._weights, cap - 1)]",
           (DC + "test_stored_list_is_cut_at_each_smaller_cap",),
           "a smaller cap loses the classes of its own weight"),
    Mutant("table-serves-budgets", "disk_complex.py",
           "if budget is None and cap <= self._cap:",
           "if cap <= self._cap:",
           (CLI + "test_session_table_outputs_match_fresh_tables",),
           "a budgeted call is served from the stored list"),
    Mutant("table-stores-partial", "disk_complex.py",
           "if budget is None and len(curves) <= MAX_STORED_CLASSES:",
           "if len(curves) <= MAX_STORED_CLASSES:",
           (CLI + "test_session_table_outputs_match_fresh_tables",),
           "a list cut short by its budget is stored as complete"),
    Mutant("disk-test-without-cut", "disk_complex.py",
           "(cut, c.coords),",
           "(side, c.coords),",
           (CLI + "test_session_table_outputs_match_fresh_tables",),
           "disk tests of one class on two cut systems share an answer"),
    Mutant("disk-test-key-copies-cut", "disk_complex.py",
           "cut = diagram.side(side).vectors",
           "cut = tuple(z.coords for z in diagram.side(side).curves)",
           (DC + "test_disk_tests_are_keyed_by_the_diagrams_cut_vectors",),
           "each disk-test key holds its own copy of the cut's vectors"),
    Mutant("image-permutes-a-only", "disk_complex.py",
           "sigma(b.coords))",
           "b.coords)",
           (DC + "test_pair_store_matches_pair_loop",),
           "a pair reads the answer of (σa, b), which need not be its "
           "image"),
    # Images only save work, so the count of ladder runs catches it.
    Mutant("images-never-read", "disk_complex.py",
           "                if image in self._meets:\n",
           "                if False:\n",
           (DC + "test_pair_store_matches_pair_loop",),
           "every pair missing from the store runs the ladder"),
    Mutant("row-skips-last-class", "disk_complex.py",
           "return [u.coords for u in curves\n",
           "return [u.coords for u in curves[:-1]\n",
           (DC + "test_row_search_matches_full_lambda",),
           "no Λ row lists the last class of the capped list"),
    Mutant("row-keeps-i1-only", "disk_complex.py",
           "if u is not a and table.meets(a, u) is not None]",
           "if u is not a and table.meets(a, u) == 1]",
           (DC + "test_row_search_matches_full_lambda",),
           "a Λ row drops the classes disjoint from its vertex"),
    Mutant("row-under-wrong-vertex", "disk_complex.py",
           "listed = {c.coords: c for c in curves}",
           "listed = dict(zip([c.coords for c in curves], "
           "curves[1:] + curves[:1]))",
           (DC + "test_row_search_matches_full_lambda",),
           "each vertex is served the Λ row of the next listed class"),
    Mutant("summary-edge-test-flipped", "disk_complex.py",
           "        if self.edge_witness is None:\n",
           "        if self.edge_witness is not None:\n",
           (DC + "test_classification_table",),
           "a diagram with an edge is summarized as strongly irreducible"),
    Mutant("disk-test-without-free-reduction", "handlebody.py",
           "boundary_word(c, cut, minimal=False).is_trivial()",
           "not boundary_word(c, cut, minimal=False).letters",
           (HB + "test_bounds_disk_without_minimal_position_matches_"
                 "minimal_word",),
           "a disk whose first-drawn word is not yet reduced is missed"),
    Mutant("exponent-sum-rule-inverted", "handlebody.py",
           "    if any(algebraic_intersection(c, z) for z in cut.curves):\n",
           "    if not any(algebraic_intersection(c, z) "
           "for z in cut.curves):\n",
           (HB + "test_bounds_disk_certificate_matches_word_reduction",),
           "the disk test rejects the classes whose exponent sums vanish"),
    Mutant("diagram-store-drops-blue", "cli.py",
           "json.dumps(data, sort_keys=True),",
           "json.dumps({**data, 'blue': None} if isinstance(data, dict) "
           "else data, sort_keys=True),",
           (CLI + "test_rewritten_diagram_file_is_read_again",),
           "diagrams that differ only in their blue side share a stored "
           "diagram"),
    Mutant("bijection-last-pair-wins", "serialize.py",
           "        if sigma.setdefault(a, b) != b:\n",
           "        sigma[a] = b\n        if False:\n",
           (CLI + "test_input_errors_print_their_line",),
           "a curve mapped to two images takes the last one"),
    # A separator below every label character orders the serials as tuples
    # of labels would be ordered.
    Mutant("flatten-tuple-serial", "sog.py",
           'serial + "/" + labels[j]',
           'serial + "\\0" + labels[j]',
           (SOG + "test_flatten_matches_brute_force",),
           "the tiebreak orders zigzags by label tuples, not by '/'-joined "
           "labels"),
    Mutant("flatten-unjoined-never-spent", "sog.py",
           "        if reach > budget:\n"
           "            raise _budget_spent(budget)\n",
           "",
           (SOG + "test_flatten_unjoined_verdicts_match_reference[closed4]",),
           "unjoined endpoints are called not joined whatever the budget"),
    Mutant("flatten-reach-off-by-one", "sog.py",
           "reach = oracle._reach[",
           "reach = 1 + oracle._reach[",
           (SOG + "test_flatten_unjoined_verdicts_match_reference[closed4]",),
           "unjoined endpoints are counted one state more than the search "
           "pops"),
    Mutant("flatten-ranks-reversed", "sog.py",
           "self._rank_keys = sorted(set(keys))",
           "self._rank_keys = sorted(set(keys), reverse=True)",
           (SOG + "test_flatten_joined_pairs_match_reference",),
           "a greater key gets a smaller rank"),
    Mutant("cancel-remove-sides-swapped", "ghs.py",
           'lower, upper = remove == "left", remove == "right"',
           'lower, upper = remove == "right", remove == "left"',
           (GHS + "test_every_candidate_move_outcome_is_pinned",),
           "a one-level zigzag matching both sides cancels on the side "
           "not asked for"),
    Mutant("cancel-slice-sides-swapped", "ghs.py",
           "slice(t - lower, t + 1 + upper)",
           "slice(t - upper, t + 1 + lower)",
           (GHS + "test_every_candidate_move_outcome_is_pinned",),
           "a zigzag end cancels with the thin level on the other side"),
    Mutant("moves-drop-2d-left", "ghs.py",
           'for remove in ("right", "left") if case_2d else ("right",):',
           'for remove in ("right",):',
           (GHS + "test_move_table_matches_descriptor_pair_loop_on_random_"
                  "ghss",),
           "enumeration never lists the left choice of case 2(d)"),
    Mutant("splice-skips-merge", "ghs.py",
           "    merged = full = not valid or (len(stripped) == 3 and not "
           "stripped[1])\n",
           "    merged = full = not valid\n",
           (GHS + "test_move_table_matches_descriptor_pair_loop_on_random_"
                  "ghss",),
           "a weak reduction whose F_DE strips to empty is not merged"),
    Mutant("splice-keeps-empty-thick", "ghs.py",
           "    if full or () in stripped[written]:\n",
           "    if full:\n",
           (GHS + "test_move_table_matches_descriptor_pair_loop_on_random_"
                  "ghss",),
           "a move whose F_D or F_E strips to empty is kept"),
    Mutant("invalid-input-spliced", "ghs.py",
           "    valid = not validate_ghs(ghs)\n",
           "    valid = True\n",
           (GHS + "test_move_table_matches_descriptor_pair_loop_on_invalid_"
                  "ghss",),
           "an invalid input's moves are spliced as if it were valid"),
    Mutant("apply-move-trusts-input", "ghs.py",
           "    report = _splice(ghs, t, zigzag, zigzag, remove, False)\n",
           "    report = _splice(ghs, t, zigzag, zigzag, remove, True)\n",
           (GHS + "test_apply_move_matches_reference_on_invalid_ghss",),
           "`apply_move` takes its input as valid, so a move on a raw "
           "invalid GHS skips the sphere rule, the merge and the check"),
    Mutant("invalid-result-reported", "ghs.py",
           "            return _Refusal(\"move yields an invalid GHS: {}\",\n"
           "                            (\"; \".join(errors),))\n",
           "            pass\n",
           (GHS + "test_apply_move_matches_reference_on_invalid_ghss",),
           "a move whose result is not a valid GHS is reported, not refused"),
    Mutant("table-f-d-with-itself", "ghs.py",
           "sorted(from_d & from_e)",
           "sorted(from_d & from_d)",
           (GHS + "test_move_table_matches_descriptor_pair_loop_on_random_"
                  "ghss",),
           "the table lists F_DE one compression from F_D alone, not from "
           "F_D and F_E"),
    Mutant("key-ascending", "ghs.py",
           "sorted(map(_complexity, levels[1::2]), reverse=True)",
           "sorted(map(_complexity, levels[1::2]))",
           (GHS + "test_ghs_key_is_a_fresh_list_and_not_a_field",),
           "a GHS key lists its complexities in ascending order"),
    Mutant("splice-keeps-no-shrink", "ghs.py",
           "    if not new._key < ghs._key:\n",
           "    if not (valid or new._key < ghs._key):\n",
           (GHS + "test_move_table_matches_descriptor_pair_loop_on_random_"
                  "ghss",),
           "enumeration on a valid GHS keeps a move that does not shrink "
           "it, which `apply_move` refuses"),
    Mutant("states-admit-genus-0", "sog.py",
           "out.append(cand)",
           "out.append(cand + (0,))",
           (SOG + "test_state_first_oracle_states_pass_the_checks_they_"
                  "skip[boundary0]",),
           "the oracle's unchecked states include interior levels with a "
           "2-sphere"),
    Mutant("arcs-no-parallel-tiebreak", "sog.py",
           "            if shared[order] > 1:\n",
           "            if False:\n",
           (SOG + "test_state_first_oracle_matches_reference[boundary0]",),
           "parallel edges between two nodes keep the order in which they "
           "were found, not the order of their moves' reprs"),
]


def _pytest(src: Path, selection, timeout: float, *flags) -> int:
    """Exit status of pytest on the selection, importing the program from
    src; a run past the timeout counts as a failure."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *flags, *selection],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return -1


def _copy_src(into: Path, mutant: Mutant | None = None) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        path = src / "heegaard_lab" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the text to replace occurs "
                             f"{text.count(mutant.old)} times in "
                             f"{mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new))
    return src


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in chosen}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(Path(tmp))
        probe = subprocess.run(
            [sys.executable, "-c", "import heegaard_lab; "
             "print(heegaard_lab.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, check=True)
        if not Path(probe.stdout.strip()).resolve().is_relative_to(
                src.resolve()):
            raise SystemExit(f"heegaard_lab imports from {probe.stdout}")
        every = sorted({t for m in chosen for t in m.selection})
        print("the selections on the unmutated program ...", flush=True)
        if _pytest(src, every, BASELINE_TIMEOUT_S) != 0:
            print("the selections fail on the unmutated program")
            return 1
    survivors = []
    for m in chosen:
        # The name goes out first, so a run cut short still names itself.
        print(f"{m.name:34}", end=" ", flush=True)
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            status = _pytest(_copy_src(Path(tmp), m), m.selection, TIMEOUT_S,
                             "-x")
        verdict = {0: "SURVIVED", -1: "timed out"}.get(status, "killed")
        if status == 0:
            survivors.append(m.name)
        print(f"{verdict:9} {time.perf_counter() - t0:6.1f} s  {m.breaks}",
              flush=True)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
