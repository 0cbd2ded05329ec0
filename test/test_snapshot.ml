(* Snapshot container and checkpoint-store tests.

   Properties (Qc_replay, seed-replayable): the polymg.snapshot/1
   container round-trips metadata and payloads bit-identically, and any
   single-byte corruption, truncation, or trailing garbage makes [read]
   reject the file — the CRC framing never deserializes a torn write.
   Unit tests cover the CRC test vector and its agreement with a
   bytewise reference, a golden file pinning the encoder's bytes,
   atomic replacement, generation
   rotation (the newest good generation is never deleted), corrupt-
   generation fallback, the deadline-aware cadence clamp, and the
   sink's deferred-flush copy semantics, including reuse of its copy. *)

open Repro_mg
module Grid = Repro_grid.Grid
module Buf = Repro_grid.Buf
module Snapshot = Repro_runtime.Snapshot
module Json = Repro_runtime.Json

let tmpdir = "snapshot-test-tmp"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let fresh =
  let k = ref 0 in
  fun name ->
    incr k;
    mkdir_p tmpdir;
    Filename.concat tmpdir (Printf.sprintf "%s-%d" name !k)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* -- arbitraries -------------------------------------------------------- *)

let meta_arb =
  (* metadata documents like Checkpoint's: string/int fields only (float
     round-tripping is covered by the grid codec property) *)
  QCheck.(
    make
      ~print:(fun kvs ->
        Json.to_string
          (Json.Obj (List.map (fun (k, v) -> (k, Json.num v)) kvs)))
      Gen.(
        small_list
          (pair
             (string_size ~gen:(char_range 'a' 'z') (int_range 1 8))
             small_int)))

let payloads_arb =
  QCheck.(list_of_size Gen.(int_range 0 3) (string_gen Gen.char))

let snapshot_arb = QCheck.pair meta_arb payloads_arb

let meta_of kvs =
  (* duplicate keys would make printed-form comparison see the parser's
     duplicate policy, not the container; last-one-wins dedup instead *)
  let tbl = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) kvs;
  Json.Obj
    (Hashtbl.fold (fun k v acc -> (k, Json.num v) :: acc) tbl []
    |> List.sort compare)

let write_snapshot (kvs, payloads) =
  let path = fresh "prop" in
  Snapshot.write ~path ~meta:(meta_of kvs) ~payloads;
  path

(* -- properties --------------------------------------------------------- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"snapshot: write/read round-trips bit-identically"
    ~count:100 snapshot_arb (fun ((kvs, payloads) as s) ->
      let path = write_snapshot s in
      match Snapshot.read ~path with
      | Error m -> QCheck.Test.fail_reportf "rejected own write: %s" m
      | Ok (meta, payloads') ->
        Json.to_string meta = Json.to_string (meta_of kvs)
        && payloads' = payloads)

let prop_corruption_rejected =
  QCheck.Test.make
    ~name:"snapshot: any single-byte corruption is rejected" ~count:200
    QCheck.(triple snapshot_arb (int_range 0 1_000_000) (int_range 1 255))
    (fun (s, off, mask) ->
      let path = write_snapshot s in
      let bytes = Bytes.of_string (read_file path) in
      let i = off mod Bytes.length bytes in
      Bytes.set bytes i
        (Char.chr (Char.code (Bytes.get bytes i) lxor mask));
      write_file path (Bytes.to_string bytes);
      match Snapshot.read ~path with
      | Error _ -> true
      | Ok _ ->
        QCheck.Test.fail_reportf
          "byte %d xor 0x%02x accepted (file %d bytes)" i mask
          (Bytes.length bytes))

let prop_truncation_rejected =
  QCheck.Test.make ~name:"snapshot: any truncation is rejected" ~count:200
    QCheck.(pair snapshot_arb (int_range 0 1_000_000))
    (fun (s, cut) ->
      let path = write_snapshot s in
      let whole = read_file path in
      let keep = cut mod String.length whole in
      write_file path (String.sub whole 0 keep);
      match Snapshot.read ~path with
      | Error _ -> true
      | Ok _ -> QCheck.Test.fail_reportf "prefix of %d bytes accepted" keep)

let prop_trailing_rejected =
  QCheck.Test.make ~name:"snapshot: trailing bytes are rejected" ~count:50
    snapshot_arb (fun s ->
      let path = write_snapshot s in
      write_file path (read_file path ^ "x");
      match Snapshot.read ~path with Error _ -> true | Ok _ -> false)

let prop_grid_codec =
  QCheck.Test.make ~name:"snapshot: grid payload codec is bit-exact"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 1 64) float)
    (fun xs ->
      let buf = Buf.of_array (Array.of_list xs) in
      let out = Buf.create (Buf.len buf) in
      match Snapshot.payload_to_buf (Snapshot.payload_of_buf buf) out with
      | Error m -> QCheck.Test.fail_reportf "decode: %s" m
      | Ok () ->
        List.for_all
          (fun i ->
            Int64.bits_of_float (Buf.get buf i)
            = Int64.bits_of_float (Buf.get out i))
          (List.init (Buf.len buf) Fun.id))

(* -- unit tests --------------------------------------------------------- *)

let test_crc_vector () =
  (* the classic IEEE CRC-32 check value *)
  Alcotest.(check int)
    "crc32(123456789)" 0xCBF43926
    (Snapshot.crc32 "123456789")

(* Bytewise reference CRC (one table lookup per byte), the formulation
   the slicing-by-8 implementation replaced. *)
let crc32_ref ?(crc = 0) s =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref (crc lxor 0xFFFFFFFF) in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

let test_crc_matches_bytewise () =
  let st = Random.State.make [| 17 |] in
  let s = String.init 64 (fun _ -> Char.chr (Random.State.int st 256)) in
  for len = 0 to 64 do
    let prefix = String.sub s 0 len in
    Alcotest.(check int)
      (Printf.sprintf "length %d" len)
      (crc32_ref prefix) (Snapshot.crc32 prefix);
    (* chaining: every split point of the prefix *)
    for k = 0 to len do
      let a = String.sub prefix 0 k and b = String.sub prefix k (len - k) in
      Alcotest.(check int)
        (Printf.sprintf "length %d split at %d" len k)
        (crc32_ref prefix)
        (Snapshot.crc32 ~crc:(Snapshot.crc32 a) b)
    done
  done

let prop_crc_matches_bytewise =
  QCheck.Test.make ~name:"crc32 equals the bytewise reference" ~count:300
    QCheck.(pair (string_of_size Gen.(int_range 0 300)) small_nat)
    (fun (s, split) ->
      let k = split mod (String.length s + 1) in
      let a = String.sub s 0 k
      and b = String.sub s k (String.length s - k) in
      Snapshot.crc32 s = crc32_ref s
      && Snapshot.crc32 ~crc:(Snapshot.crc32 a) b = crc32_ref s
      && Snapshot.crc32 ~crc:(crc32_ref a) b = crc32_ref ~crc:(crc32_ref a) b)

(* test/golden/snapshot-v1.snap holds the bytes the original
   Buffer-based encoder produced for exactly these inputs: the encoder
   must keep writing them byte for byte, and the reader must accept
   them. *)
let golden_inputs () =
  let bits =
    [| 0x0000000000000000L; 0x8000000000000000L; 0x3FF0000000000000L;
       0x400921FB54442D18L; 0x7FF0000000000000L; 0xFFF0000000000000L;
       0x7FF8000000000001L; 0x0000000000000001L; 0xC1D2E3F405162738L |]
  in
  let buf = Buf.of_array (Array.map Int64.float_of_bits bits) in
  let meta =
    Json.Obj
      [ ("kind", Json.Str "golden");
        ("cycle", Json.num 7);
        ("residual", Json.Num 1.25e-9);
        ("extents", Json.Arr [ Json.num 3; Json.num 3 ]);
        ("note", Json.Str "tab\there \"quoted\"") ]
  in
  (meta, [ Snapshot.payload_of_buf buf; String.init 256 Char.chr; "" ])

(* found from the test directory (dune runtest) or the repo root *)
let golden_path () =
  match
    List.find_opt Sys.file_exists
      [ "golden/snapshot-v1.snap"; "test/golden/snapshot-v1.snap" ]
  with
  | Some p -> p
  | None -> Alcotest.fail "golden/snapshot-v1.snap not found"

let test_golden_snapshot () =
  let golden = read_file (golden_path ()) in
  let meta, payloads = golden_inputs () in
  let path = fresh "golden" in
  Snapshot.write ~path ~meta ~payloads;
  Alcotest.(check int) "same size as the golden file"
    (String.length golden) (String.length (read_file path));
  Alcotest.(check bool) "byte-identical to the golden file" true
    (read_file path = golden);
  match Snapshot.read ~path:(golden_path ()) with
  | Error m -> Alcotest.failf "golden file rejected: %s" m
  | Ok (meta', payloads') ->
    Alcotest.(check string) "golden metadata"
      (Json.to_string meta) (Json.to_string meta');
    Alcotest.(check (list string)) "golden payloads" payloads payloads'

let test_write_grid_matches_write () =
  let buf = Buf.create 1000 in
  let st = Random.State.make [| 5 |] in
  Buf.map_inplace (fun _ -> Random.State.float st 2.0 -. 1.0) buf;
  let meta = Json.Obj [ ("kind", Json.Str "grid") ] in
  let a = fresh "grid-a" and b = fresh "grid-b" in
  Snapshot.write ~path:a ~meta ~payloads:[ Snapshot.payload_of_buf buf ];
  Snapshot.write_grid ~path:b ~meta buf;
  Alcotest.(check bool) "write_grid is byte-identical to write" true
    (read_file a = read_file b)

let test_atomic_replace () =
  let path = fresh "atomic" in
  Snapshot.atomic_write_string ~path "first\n";
  Snapshot.atomic_write_string ~path "second\n";
  Alcotest.(check string) "replaced" "second\n" (read_file path);
  let base = Filename.basename path ^ ".tmp" in
  Alcotest.(check bool)
    "no temp droppings" false
    (Array.exists
       (fun f ->
         String.length f >= String.length base
         && String.sub f 0 (String.length base) = base)
       (Sys.readdir (Filename.dirname path)))

let mk_state ~cycle =
  let v = Grid.create [| 9; 9 |] in
  Grid.fill_interior v ~f:(fun idx ->
      float_of_int ((cycle * 100) + (idx.(0) * 10) + idx.(1)));
  { Checkpoint.cycle;
    residual = 1.0 /. float_of_int cycle;
    dims = 2;
    n = 8;
    variant = "opt+";
    plan_digest = "test-digest";
    seed = 0;
    history =
      [ { Solver.cycle; residual = 1.0; seconds = 0.0; status = Solver.Ok } ];
    v }

let config dir = { Checkpoint.dir; every = 1; keep = 3 }

let test_rotation () =
  let dir = fresh "rotate" in
  let cfg = config dir in
  List.iter (fun c -> ignore (Checkpoint.save cfg (mk_state ~cycle:c)))
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int))
    "keeps the last 3 generations" [ 3; 4; 5 ]
    (Checkpoint.generations ~dir)

let test_corrupt_fallback () =
  let dir = fresh "fallback" in
  let cfg = config dir in
  List.iter (fun c -> ignore (Checkpoint.save cfg (mk_state ~cycle:c)))
    [ 1; 2; 3 ];
  (* flip a payload byte of the newest generation *)
  let path = Checkpoint.gen_path ~dir 3 in
  let b = Bytes.of_string (read_file path) in
  let i = Bytes.length b - 20 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  write_file path (Bytes.to_string b);
  match Checkpoint.load_latest ~dir with
  | Error m -> Alcotest.failf "no fallback: %s" m
  | Ok r ->
    Alcotest.(check int) "fell back to generation 2" 2 r.Checkpoint.gen;
    Alcotest.(check int)
      "rejected exactly the corrupt generation" 1
      (List.length r.Checkpoint.rejected);
    Alcotest.(check int)
      "restored state is generation 2's" 2
      r.Checkpoint.state.Checkpoint.cycle;
    let expect = mk_state ~cycle:2 in
    Alcotest.(check (float 0.0))
      "restored iterate bit-identical" 0.0
      (Buf.max_abs_diff r.Checkpoint.state.Checkpoint.v.Grid.buf
         expect.Checkpoint.v.Grid.buf)

let test_empty_dir () =
  let dir = fresh "empty" in
  mkdir_p dir;
  match Checkpoint.load_latest ~dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty dir produced a generation"

let test_effective_every () =
  Alcotest.(check int) "no deadline keeps the cadence" 5
    (Checkpoint.effective_every ~every:5 ~deadline:None);
  Alcotest.(check int) "a deadline clamps to every cycle" 1
    (Checkpoint.effective_every ~every:5 ~deadline:(Some 0.5))

let test_sink_flush_copies () =
  (* off-cadence accepted state must be snapshotted by value: the solve
     loop ping-pongs the iterate buffer after on_accept returns *)
  let dir = fresh "sink" in
  let sink =
    Checkpoint.sink
      { Checkpoint.dir; every = 1000; keep = 3 }
      ~dims:2 ~n:8 ~variant:"opt+" ~plan_digest:"test-digest" ()
  in
  let v = Grid.create [| 9; 9 |] in
  Grid.fill_interior v ~f:(fun _ -> 7.0);
  sink.Checkpoint.on_accept ~cycle:1 ~residual:0.5 ~v
    ~stats:[ { Solver.cycle = 1; residual = 0.5; seconds = 0.0;
               status = Solver.Ok } ];
  Grid.fill_interior v ~f:(fun _ -> -1.0) (* the loop reuses the buffer *);
  (match sink.Checkpoint.flush () with
   | None -> Alcotest.fail "flush had nothing to save"
   | Some _ -> ());
  (match Checkpoint.load_latest ~dir with
   | Error m -> Alcotest.failf "load after flush: %s" m
   | Ok r ->
     Alcotest.(check (float 0.0))
       "flushed the accepted values, not the reused buffer" 7.0
       (Grid.get2 r.Checkpoint.state.Checkpoint.v 3 3));
  (* a later off-cadence accept overwrites the sink's one copy: the
     next flush must persist that state, whole *)
  let w = Grid.create [| 9; 9 |] in
  Grid.fill_interior w ~f:(fun idx -> float_of_int (idx.(0) + idx.(1)));
  sink.Checkpoint.on_accept ~cycle:2 ~residual:0.25 ~v:w
    ~stats:
      [ { Solver.cycle = 1; residual = 0.5; seconds = 0.0; status = Solver.Ok };
        { Solver.cycle = 2; residual = 0.25; seconds = 0.0;
          status = Solver.Ok } ];
  Grid.fill_interior w ~f:(fun _ -> -1.0);
  (match sink.Checkpoint.flush () with
   | None -> Alcotest.fail "second flush had nothing to save"
   | Some _ -> ());
  match Checkpoint.load_latest ~dir with
  | Error m -> Alcotest.failf "load after second flush: %s" m
  | Ok r ->
    let st = r.Checkpoint.state in
    Alcotest.(check int) "latest accepted cycle" 2 st.Checkpoint.cycle;
    let whole = ref true in
    Grid.iter_interior st.Checkpoint.v ~f:(fun idx x ->
        if x <> float_of_int (idx.(0) + idx.(1)) then whole := false);
    Alcotest.(check bool) "cycle 2's values, whole" true !whole

let () =
  rm_rf tmpdir;
  let unit name f = Alcotest.test_case name `Quick f in
  Alcotest.run "snapshot"
    [ ( "properties",
        Qc_replay.to_alcotest_list
          [ prop_roundtrip;
            prop_corruption_rejected;
            prop_truncation_rejected;
            prop_trailing_rejected;
            prop_grid_codec;
            prop_crc_matches_bytewise ] );
      ( "unit",
        [ unit "crc32 test vector" test_crc_vector;
          unit "crc32 matches bytewise on lengths 0-64" test_crc_matches_bytewise;
          unit "golden snapshot bytes" test_golden_snapshot;
          unit "write_grid matches write" test_write_grid_matches_write;
          unit "atomic replacement" test_atomic_replace;
          unit "generation rotation" test_rotation;
          unit "corrupt-generation fallback" test_corrupt_fallback;
          unit "empty directory" test_empty_dir;
          unit "deadline clamps cadence" test_effective_every;
          unit "sink deferred flush copies" test_sink_flush_copies ] ) ]
