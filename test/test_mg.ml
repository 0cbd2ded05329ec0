open Repro_ir
open Repro_core
open Repro_mg
module Grid = Repro_grid.Grid

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* Table 3 stage counts, reproduced exactly *)
let test_stage_counts_table3 () =
  List.iter
    (fun (dims, shape, sm, expect) ->
      let cfg = Cycle.default ~dims ~shape ~smoothing:sm in
      check_int
        (Cycle.bench_name cfg)
        expect
        (Pipeline.stage_count (Cycle.build cfg)))
    [ (2, Cycle.V, (4, 4, 4), 40);
      (2, Cycle.V, (10, 0, 0), 42);
      (2, Cycle.W, (4, 4, 4), 100);
      (2, Cycle.W, (10, 0, 0), 98);
      (3, Cycle.V, (4, 4, 4), 40);
      (3, Cycle.V, (10, 0, 0), 42);
      (3, Cycle.W, (4, 4, 4), 100);
      (3, Cycle.W, (10, 0, 0), 98) ]

let test_min_n () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  check_int "4 levels" 32 (Cycle.min_n cfg);
  check_int "6 levels" 128 (Cycle.min_n { cfg with Cycle.levels = 6 })

let test_params () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let p = Cycle.params cfg ~n:64 in
  check_float "invhsq finest" 4096.0 (p "invhsq_L3");
  check_float "invhsq coarsest" 64.0 (p "invhsq_L0");
  check_float "weight" (0.8 /. (4.0 *. 4096.0)) (p "w_L3");
  check_bool "unknown rejected" true
    (try ignore (p "bogus"); false with Invalid_argument _ -> true)

let test_params_divisibility () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  check_bool "raises" true
    (try ignore (Cycle.params cfg ~n:36 "invhsq_L0"); false
     with Invalid_argument _ -> true)

let test_zero_smoothing_cycle () =
  (* with no smoothing anywhere the cycle degenerates to a pass-through:
     all coarse corrections are zero, so one cycle returns v unchanged *)
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(0, 0, 0) in
  let p = Cycle.build cfg in
  check_bool "builds" true (Pipeline.stage_count p > 0);
  let n = 32 in
  let problem = Problem.poisson ~dims:2 ~n in
  Grid.fill_interior problem.Problem.v ~f:(fun idx -> float_of_int idx.(0));
  let rt = Exec.runtime () in
  let stepper = Solver.polymg_stepper cfg ~n ~opts:Options.naive ~rt in
  let out = Grid.create (Grid.extents problem.Problem.v) in
  stepper ~v:problem.Problem.v ~f:problem.Problem.f ~out;
  Exec.free_runtime rt;
  check_bool "pass-through" true
    (Grid.max_abs_diff out problem.Problem.v < 1e-14)

let test_inputs_outputs () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4) in
  let p = Cycle.build cfg in
  check_bool "v != f" true (Cycle.input_v p <> Cycle.input_f p);
  check_bool "output not input" true
    (not (Func.is_input (Pipeline.func p (Cycle.output p))))

(* convergence *)

let residual_factor cfg ~n ~cycles =
  let r = Solver.solve cfg ~n ~opts:Options.opt_plus ~cycles () in
  let rs = List.map (fun s -> s.Solver.residual) r.Solver.stats in
  match rs with
  | first :: rest when cycles >= 2 ->
    let last = List.nth rest (List.length rest - 1) in
    (last /. first) ** (1.0 /. float_of_int (cycles - 1))
  | _ -> Alcotest.fail "need >= 2 cycles"

let test_vcycle_converges_2d () =
  let cfg =
    { (Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4)) with
      Cycle.levels = 6 }
  in
  let rho = residual_factor cfg ~n:64 ~cycles:5 in
  check_bool (Printf.sprintf "V-cycle rate %.3f < 0.25" rho) true (rho < 0.25)

let test_wcycle_converges_faster () =
  let v =
    { (Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(4, 4, 4)) with
      Cycle.levels = 6 }
  in
  let w = { v with Cycle.shape = Cycle.W } in
  let rv = residual_factor v ~n:64 ~cycles:4 in
  let rw = residual_factor w ~n:64 ~cycles:4 in
  check_bool (Printf.sprintf "W (%.4f) beats V (%.4f)" rw rv) true (rw < rv)

let test_fcycle_converges () =
  let cfg =
    { (Cycle.default ~dims:2 ~shape:Cycle.F ~smoothing:(2, 2, 2)) with
      Cycle.levels = 5 }
  in
  let rho = residual_factor cfg ~n:32 ~cycles:4 in
  check_bool (Printf.sprintf "F-cycle rate %.3f" rho) true (rho < 0.2)

let test_3d_converges () =
  let cfg =
    { (Cycle.default ~dims:3 ~shape:Cycle.V ~smoothing:(4, 4, 4)) with
      Cycle.levels = 4 }
  in
  let rho = residual_factor cfg ~n:32 ~cycles:4 in
  check_bool (Printf.sprintf "3D rate %.3f" rho) true (rho < 0.5)

let test_solution_approaches_exact () =
  (* after enough W-cycles the iterate reaches the discrete solution,
     whose distance to the continuous solution is O(h²) *)
  let cfg =
    { (Cycle.default ~dims:2 ~shape:Cycle.W ~smoothing:(4, 4, 4)) with
      Cycle.levels = 5 }
  in
  let solve n =
    let problem = Problem.poisson ~dims:2 ~n in
    let rt = Exec.runtime () in
    let stepper = Solver.polymg_stepper cfg ~n ~opts:Options.opt_plus ~rt in
    let r = Solver.iterate stepper ~problem ~cycles:12 ~residuals:false () in
    Exec.free_runtime rt;
    Verify.error_l2 ~v:r.Solver.v ~exact:problem.Problem.exact
  in
  let e32 = solve 32 and e64 = solve 64 in
  check_bool
    (Printf.sprintf "O(h^2): e32=%.2e e64=%.2e ratio=%.2f" e32 e64 (e32 /. e64))
    true
    (e32 /. e64 > 3.0 && e32 /. e64 < 5.0)

let test_handopt_matches_polymg () =
  List.iter
    (fun (dims, shape, sm) ->
      let cfg = Cycle.default ~dims ~shape ~smoothing:sm in
      let n = if dims = 2 then 32 else 16 in
      let problem = Problem.poisson ~dims ~n in
      let rt = Exec.runtime () in
      let s_poly = Solver.polymg_stepper cfg ~n ~opts:Options.opt_plus ~rt in
      let s_hand =
        Handopt.stepper (Handopt.create cfg ~n ~par:rt.Exec.par ())
      in
      let s_pluto =
        Handopt.stepper
          (Handopt.create cfg ~n ~par:rt.Exec.par
             ~smoothing:(Handopt.Pluto { sigma = 5 })
             ())
      in
      let run s = (Solver.iterate s ~problem ~cycles:3 ~residuals:false ()).Solver.v in
      let vp = run s_poly and vh = run s_hand and vd = run s_pluto in
      Exec.free_runtime rt;
      let d1 = Grid.max_abs_diff vp vh and d2 = Grid.max_abs_diff vp vd in
      check_bool
        (Printf.sprintf "%s handopt diff %g" (Cycle.bench_name cfg) d1)
        true (d1 < 1e-12);
      check_bool
        (Printf.sprintf "%s handpluto diff %g" (Cycle.bench_name cfg) d2)
        true (d2 < 1e-12))
    [ (2, Cycle.V, (4, 4, 4)); (2, Cycle.W, (10, 0, 0));
      (3, Cycle.V, (10, 0, 0)); (3, Cycle.W, (4, 4, 4));
      (2, Cycle.V, (3, 1, 2)) ]

let test_handopt_rejects_fcycle () =
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.F ~smoothing:(2, 2, 2) in
  check_bool "raises" true
    (try
       ignore (Handopt.create cfg ~n:32 ~par:Repro_runtime.Parallel.sequential ());
       false
     with Invalid_argument _ -> true)

let test_verify_residual_of_exact_discrete () =
  (* residual of f against A·v is zero when f = A·v by construction *)
  let n = 16 in
  let v = Grid.interior ~dims:2 (n - 1) in
  Grid.fill_interior v ~f:(fun idx ->
      sin (float_of_int idx.(0)) *. cos (float_of_int idx.(1)));
  let f = Grid.create (Grid.extents v) in
  Verify.apply_poisson ~n ~v ~out:f;
  check_float "zero residual" 0.0 (Verify.residual_l2 ~n ~v ~f)

(* -- Verify kernels vs the indexed reference ------------------------- *)

(* The _ref oracle (HPCG's ComputeMG_ref/_opt discipline): Verify's
   earlier formulation — indexed accessors, a temporary A·v grid, a
   closure reduction over f's interior.  The flat-offset kernels must
   reproduce it bit for bit. *)
let apply_poisson_ref ~n ~v ~out =
  let invhsq = float_of_int (n * n) in
  let e = Grid.extents v in
  match Grid.dims v with
  | 2 ->
    for i = 1 to e.(0) - 2 do
      for j = 1 to e.(1) - 2 do
        let c = Grid.get2 v i j in
        let s =
          (4.0 *. c) -. Grid.get2 v (i - 1) j -. Grid.get2 v (i + 1) j
          -. Grid.get2 v i (j - 1) -. Grid.get2 v i (j + 1)
        in
        Grid.set2 out i j (invhsq *. s)
      done
    done
  | 3 ->
    for i = 1 to e.(0) - 2 do
      for j = 1 to e.(1) - 2 do
        for k = 1 to e.(2) - 2 do
          let c = Grid.get3 v i j k in
          let s =
            (6.0 *. c) -. Grid.get3 v (i - 1) j k -. Grid.get3 v (i + 1) j k
            -. Grid.get3 v i (j - 1) k -. Grid.get3 v i (j + 1) k
            -. Grid.get3 v i j (k - 1) -. Grid.get3 v i j (k + 1)
          in
          Grid.set3 out i j k (invhsq *. s)
        done
      done
    done
  | _ -> invalid_arg "apply_poisson_ref: rank"

let residual_l2_ref ~n ~v ~f =
  let av = Grid.create (Grid.extents v) in
  apply_poisson_ref ~n ~v ~out:av;
  let sum = ref 0.0 and count = ref 0 in
  Grid.iter_interior f ~f:(fun idx fv ->
      let r = fv -. Grid.get av idx in
      sum := !sum +. (r *. r);
      incr count);
  sqrt (!sum /. float_of_int !count)

(* rank 2 or 3, every extent in 3..13 independently, values spread over
   twelve decades with both signs so rounding differences would show *)
let verify_case =
  let open QCheck.Gen in
  let gen =
    let* dims = int_range 2 3 in
    let* extents = array_size (return dims) (int_range 3 13) in
    let* n = int_range 1 2048 in
    let* seed = int_bound 1_000_000 in
    return (n, extents, seed)
  in
  QCheck.make gen ~print:(fun (n, e, seed) ->
      Printf.sprintf "n=%d extents=[%s] seed=%d" n
        (String.concat "x" (Array.to_list (Array.map string_of_int e)))
        seed)

let random_grid st extents =
  let g = Grid.create extents in
  Grid.fill_all g ~f:(fun _ ->
      (Random.State.float st 2.0 -. 1.0)
      *. (10.0 ** float_of_int (Random.State.int st 13 - 6)));
  g

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_verify_matches_ref =
  QCheck.Test.make ~name:"Verify kernels bit-identical to the reference"
    ~count:200 verify_case (fun (n, extents, seed) ->
      let st = Random.State.make [| seed |] in
      let v = random_grid st extents and f = random_grid st extents in
      (* ghost cells of [out] are left alone: start both from the same
         garbage so the whole buffers can be compared *)
      let out = random_grid st extents in
      let out_ref = Grid.copy out in
      Verify.apply_poisson ~n ~v ~out;
      apply_poisson_ref ~n ~v ~out:out_ref;
      let buf_same = ref true in
      for i = 0 to Grid.points out - 1 do
        if
          not
            (same_bits
               (Repro_grid.Buf.get out.Grid.buf i)
               (Repro_grid.Buf.get out_ref.Grid.buf i))
        then buf_same := false
      done;
      !buf_same
      && same_bits (Verify.residual_l2 ~n ~v ~f) (residual_l2_ref ~n ~v ~f))

let test_verify_nonfinite_propagates () =
  let n = 8 in
  let v = Grid.interior ~dims:2 (n - 1) in
  let f = Grid.create (Grid.extents v) in
  Grid.set2 v 3 4 Float.nan;
  check_bool "NaN in v gives a NaN residual" true
    (Float.is_nan (Verify.residual_l2 ~n ~v ~f));
  let v3 = Grid.interior ~dims:3 (n - 1) in
  let f3 = Grid.create (Grid.extents v3) in
  Grid.set3 v3 2 2 2 Float.infinity;
  check_bool "Inf in v gives a non-finite residual" true
    (not (Float.is_finite (Verify.residual_l2 ~n ~v:v3 ~f:f3)))

let test_verify_rejects_bad_operands () =
  let raises name fn =
    check_bool name true
      (match fn () with
       | (_ : unit) -> false
       | exception Invalid_argument _ -> true)
  in
  let v = Grid.create [| 6; 7 |] in
  raises "f extents differ from v" (fun () ->
      ignore (Verify.residual_l2 ~n:4 ~v ~f:(Grid.create [| 7; 6 |])));
  raises "out extents differ from v" (fun () ->
      Verify.apply_poisson ~n:4 ~v ~out:(Grid.create [| 6; 8 |]));
  raises "extent < 3 (residual)" (fun () ->
      let g = Grid.create [| 2; 5 |] in
      ignore (Verify.residual_l2 ~n:4 ~v:g ~f:g));
  List.iter
    (fun extents ->
      let g = Grid.create extents in
      let rank = Array.length extents in
      raises (Printf.sprintf "rank %d (residual)" rank) (fun () ->
          ignore (Verify.residual_l2 ~n:4 ~v:g ~f:(Grid.copy g)));
      raises (Printf.sprintf "rank %d (apply)" rank) (fun () ->
          Verify.apply_poisson ~n:4 ~v:g ~out:(Grid.copy g)))
    [ [| 5 |]; [| 4; 4; 4; 4 |] ]

let test_problem_classes () =
  check_int "2D B" 1024 (Problem.class_n ~dims:2 Problem.B);
  check_int "3D C" 256 (Problem.class_n ~dims:3 Problem.C);
  check_bool "parse" true (Problem.cls_of_string "b" = Some Problem.B);
  check_bool "bad" true (Problem.cls_of_string "x" = None)

let test_problem_rhs () =
  let p = Problem.poisson ~dims:2 ~n:16 in
  (* rhs of the manufactured solution is positive in the interior *)
  let mn = ref infinity in
  Grid.iter_interior p.Problem.f ~f:(fun _ v -> if v < !mn then mn := v);
  check_bool "positive rhs" true (!mn > 0.0);
  check_float "zero guess" 0.0 (Repro_grid.Norms.linf p.Problem.v)

let test_solver_iterate_swaps () =
  (* two cycles through iterate must equal two manual stepper calls *)
  let cfg = Cycle.default ~dims:2 ~shape:Cycle.V ~smoothing:(2, 2, 2) in
  let n = 32 in
  let problem = Problem.poisson ~dims:2 ~n in
  let rt = Exec.runtime () in
  let stepper = Solver.polymg_stepper cfg ~n ~opts:Options.naive ~rt in
  let r = Solver.iterate stepper ~problem ~cycles:2 ~residuals:false () in
  let a = Grid.copy problem.Problem.v in
  let b = Grid.create (Grid.extents a) in
  stepper ~v:a ~f:problem.Problem.f ~out:b;
  stepper ~v:b ~f:problem.Problem.f ~out:a;
  Exec.free_runtime rt;
  check_bool "same" true (Grid.max_abs_diff r.Solver.v a < 1e-14)

let () =
  Alcotest.run "mg"
    [ ( "cycle construction",
        [ Alcotest.test_case "Table 3 stage counts" `Quick test_stage_counts_table3;
          Alcotest.test_case "min_n" `Quick test_min_n;
          Alcotest.test_case "params" `Quick test_params;
          Alcotest.test_case "params divisibility" `Quick test_params_divisibility;
          Alcotest.test_case "zero smoothing degenerate" `Quick
            test_zero_smoothing_cycle;
          Alcotest.test_case "inputs/outputs" `Quick test_inputs_outputs ] );
      ( "convergence",
        [ Alcotest.test_case "V-cycle 2D" `Quick test_vcycle_converges_2d;
          Alcotest.test_case "W beats V" `Quick test_wcycle_converges_faster;
          Alcotest.test_case "F-cycle" `Quick test_fcycle_converges;
          Alcotest.test_case "3D" `Quick test_3d_converges;
          Alcotest.test_case "O(h²) discretization" `Slow
            test_solution_approaches_exact ] );
      ( "baselines",
        [ Alcotest.test_case "handopt == polymg" `Quick test_handopt_matches_polymg;
          Alcotest.test_case "handopt rejects F" `Quick test_handopt_rejects_fcycle ] );
      ( "problem & verify",
        [ Alcotest.test_case "residual of exact" `Quick
            test_verify_residual_of_exact_discrete;
          Alcotest.test_case "classes" `Quick test_problem_classes;
          Alcotest.test_case "rhs" `Quick test_problem_rhs;
          Alcotest.test_case "iterate swaps" `Quick test_solver_iterate_swaps;
          Alcotest.test_case "non-finite v propagates" `Quick
            test_verify_nonfinite_propagates;
          Alcotest.test_case "bad operands rejected" `Quick
            test_verify_rejects_bad_operands ] );
      ( "verify kernels",
        Qc_replay.to_alcotest_list [ prop_verify_matches_ref ] )
    ]
