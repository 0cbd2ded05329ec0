(** C code emission from plans.

    PolyMG generates C+OpenMP; this engine executes plans directly, but
    the correspondence is kept inspectable {e and checkable}: [emit]
    prints, for any plan, the C the paper's backend would produce —
    pooled full-array allocations,
    [#pragma omp parallel for collapse(d)] tile loops, per-thread
    scratchpad declarations with their user lists, and the per-stage loop
    nests with min/max-clamped overlapped-tile bounds (the shape of
    Fig. 8; groups whose exact per-tile demand regions are not affine in
    the tile coordinates fall back to static bound tables).  The emitted
    code computes what the engine computes: ghost rims are filled (as
    their one-cell border layers), own slices are published to the full
    arrays, diamond chains run as their equivalent untiled time loop, and
    outputs are returned through [out].  Each stage group is a [static]
    function [group_<gid>] taking the inputs and full arrays it touches;
    [pipeline_<name>] allocates the arrays and calls the groups in order.
    A non-NULL [out[i]] on entry is the buffer the i-th output is
    computed into in place; a NULL one is pool-allocated.

    [driver_to_string] additionally wraps the pipeline in a
    self-contained [main()] — deterministic FNV-1a input fill, binary
    grid dump — so the artifact can be compiled, executed and diffed
    against the engine (the conformance harness's run-equivalence leg).
    Used for the generated-lines-of-code column of Table 3, by
    [polymg_dump], and by [Repro_mg.Conformance]. *)

val emit : Format.formatter -> Plan.t -> unit

val to_string : Plan.t -> string

val line_count : Plan.t -> int
(** Lines of the emitted C — Table 3's "Lines of gen. code". *)

val pipeline_symbol : Plan.t -> string
(** Name of the emitted pipeline function ([pipeline_<name>]), as
    declared by {!emit} — the symbol {!Native} wraps and calls. *)

val runnable : Plan.t -> (unit, string) result
(** [Ok ()] when every compiled kernel is affine ([Lin]) and every
    diamond chain has an emittable init source, i.e. the emitted C is a
    complete program rather than a sketch with [eval_point()] holes. *)

val driver_to_string : Plan.t -> (string, string) result
(** The pipeline plus allocator shims and a [main()] that fills the
    inputs deterministically (FNV-1a over the multi-index, mirrored by
    [Repro_mg.Conformance.fill_val]), runs the pipeline, and writes every
    output grid — ghost layers included — as raw doubles to the file
    named by [argv[1]].  [Error] when {!runnable} fails. *)
