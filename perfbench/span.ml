(* In-memory spans around the benchmark's calls into each layer.

   A span is recorded only while tracing is on; otherwise [with_]
   just runs its function. Spans nest: the span open when another
   starts is its parent, and every span carries the job id current
   when it started. They stay in memory until [write] dumps them at
   the end of the run, so recording costs two clock reads and one
   small record per call. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  job : int;
  start : float;
  stop : float;
}

let enabled = ref false

let job = ref 0

let recorded : t list ref = ref []

let count = ref 0

let open_ : int list ref = ref []

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !count in
    incr count;
    let parent = match !open_ with p :: _ -> p | [] -> -1 in
    open_ := id :: !open_;
    let job = !job in
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      open_ := List.tl !open_;
      recorded := { id; name; parent; job; start; stop } :: !recorded
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let spans () = List.rev !recorded

let duration s = s.stop -. s.start

(* Self time of every span: its duration minus the part its direct
   children cover (children never overlap on one thread). *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans

(* Total self seconds per span name, each span's self time scaled by
   [weight] of it. *)
let self_by_name ?(weight = fun _ -> 1.0) spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name
        ((self *. weight s) +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name)))
    (self_times spans);
  tbl

(* Host cost of one span, measured on empty spans: what tracing adds
   to each recorded call. Leaves the recorded list as it was. *)
let cost_per_span () =
  let saved = !recorded and saved_count = !count in
  let n = 20_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    with_ "cost" ignore
  done;
  let per = (Unix.gettimeofday () -. t0) /. float_of_int n in
  recorded := saved;
  count := saved_count;
  per

let write path spans =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"job\":%d,\"start_us\":%.1f,\"dur_us\":%.1f}\n"
            s.id s.name s.parent s.job (s.start *. 1e6) (duration s *. 1e6))
        spans)
