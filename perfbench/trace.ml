(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark around its calls into library
   layers; nothing inside the library is instrumented.  A span's layer
   is the part of its name before the first '.', so "exec.step" belongs
   to the [exec] layer.  Spans of one solve or request share [id].
   Recording is off unless [set_enabled true]; the disabled path reads
   no clock and allocates nothing. *)

type span = {
  name : string;
  id : int;  (** solve or request the span belongs to *)
  parent : int;  (** handle of the parent span, or [-1] for a root *)
  start_ns : int;
  stop_ns : int;
}

let on = ref false
let set_enabled b = on := b
let enabled () = !on
let mu = Mutex.create ()
let spans : span array ref = ref [||]
let count = ref 0

let add s =
  Mutex.lock mu;
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  let h = !count in
  !spans.(h) <- s;
  incr count;
  Mutex.unlock mu;
  h

let now = Repro_runtime.Telemetry.now_ns

(* [open_ ~id ~parent name] reserves a span handle so children recorded
   before it closes can name it; [close] stamps its end. *)
let open_ ?(parent = -1) ~id name =
  if not !on then -1
  else
    let t = now () in
    add { name; id; parent; start_ns = t; stop_ns = t }

let close h =
  if h >= 0 then begin
    let t = now () in
    Mutex.lock mu;
    !spans.(h) <- { !spans.(h) with stop_ns = t };
    Mutex.unlock mu
  end

let with_span ?parent ~id name f =
  let h = open_ ?parent ~id name in
  Fun.protect ~finally:(fun () -> close h) (fun () -> f h)

(* A span whose bounds were measured elsewhere (a server's queue wait). *)
let record ?(parent = -1) ~id name ~start_ns ~stop_ns =
  if !on then add { name; id; parent; start_ns; stop_ns } else -1

let all () = Array.sub !spans 0 !count

(* The span behind handle [h]. *)
let get h =
  Mutex.lock mu;
  let s = !spans.(h) in
  Mutex.unlock mu;
  s

let dur s = s.stop_ns - s.start_ns

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (acc, (ca, cb)) (a, b) ->
        if cb < 0 then (acc, (a, b))
        else if a <= cb then (acc, (ca, max cb b))
        else (acc + (cb - ca), (a, b)))
      (0, (0, -1)) clipped
  in
  let ca, cb = last in
  if cb < 0 then total else total + (cb - ca)

(* Indices of every span's children. *)
let children_of all =
  let ch = Array.make (Array.length all) [] in
  Array.iteri
    (fun i s -> if s.parent >= 0 then ch.(s.parent) <- i :: ch.(s.parent))
    all;
  ch

let interval s = (s.start_ns, s.stop_ns)

(* Self time of every span: its duration minus the part covered by its
   children, summed per layer (ns). *)
let self_by_layer all =
  let ch = children_of all in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let c =
        covered ~lo:s.start_ns ~hi:s.stop_ns
          (List.map (fun k -> interval all.(k)) ch.(i))
      in
      let l = layer s.name in
      let prev = Option.value (Hashtbl.find_opt tbl l) ~default:0 in
      Hashtbl.replace tbl l (prev + dur s - c))
    all;
  Hashtbl.fold (fun l ns acc -> (l, ns) :: acc) tbl []
  |> List.sort compare

(* Share of each span named [root] covered by spans below it that do
   named work.  A span named in [wrappers] only wraps a call whose parts
   have spans of their own: it counts through its children, and its
   self time stays unattributed. *)
let attributions all ~root ~wrappers =
  let ch = children_of all in
  let rec work i =
    List.concat_map
      (fun k ->
        if List.mem all.(k).name wrappers then work k else [ interval all.(k) ])
      ch.(i)
  in
  Array.to_list all
  |> List.mapi (fun i s -> (i, s))
  |> List.filter_map (fun (i, s) ->
         if s.name = root && dur s > 0 then
           Some
             (float (covered ~lo:s.start_ns ~hi:s.stop_ns (work i))
             /. float (dur s))
         else None)

let durations all name =
  Array.to_list all
  |> List.filter_map (fun s ->
         if s.name = name then Some (float (dur s) *. 1e-9) else None)

let total_s all name = List.fold_left ( +. ) 0.0 (durations all name)
