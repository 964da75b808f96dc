(* Span-based tracing with monotonic timestamps and Chrome trace_event
   export.

   The clock is Unix.gettimeofday clamped to be non-decreasing (the
   stdlib exposes no monotonic clock; the clamp makes a backwards NTP
   step harmless). Timestamps are microseconds relative to the first
   observation, which keeps the JSON small and the viewer timeline
   anchored at zero. *)

let now_us =
  let origin = ref nan in
  let last = ref 0.0 in
  fun () ->
    let t = Unix.gettimeofday () *. 1e6 in
    if Float.is_nan !origin then origin := t;
    let t = t -. !origin in
    if t > !last then last := t;
    !last

type span = {
  s_name : string;
  s_cat : string;
  s_start_us : float;
  s_dur_us : float;
  s_depth : int;
  s_args : (string * string) list;
}

(* Events carry the open-time sequence number so [spans] can return
   true start order even when the microsecond clock ties. *)
type t = {
  mutable events : (int * span) list; (* completion order, newest first *)
  mutable depth : int;
  mutable seq : int;
  mutable enabled : bool;
}

let create () = { events = []; depth = 0; seq = 0; enabled = false }

let default = create ()

let enabled t = t.enabled

let set_enabled t on = t.enabled <- on

let clear t =
  t.events <- [];
  t.depth <- 0;
  t.seq <- 0

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

let with_span ?(t = default) ?(cat = "gprof") ?(args = []) name f =
  if not t.enabled then f ()
  else begin
    let start = now_us () in
    let seq = next_seq t in
    let depth = t.depth in
    t.depth <- depth + 1;
    let finish () =
      t.depth <- depth;
      let dur = now_us () -. start in
      t.events <-
        ( seq,
          {
            s_name = name;
            s_cat = cat;
            s_start_us = start;
            s_dur_us = dur;
            s_depth = depth;
            s_args = args;
          } )
        :: t.events
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let instant ?(t = default) ?(cat = "gprof") ?(args = []) name =
  if t.enabled then
    let ts = now_us () in
    t.events <-
      ( next_seq t,
        {
          s_name = name;
          s_cat = cat;
          s_start_us = ts;
          s_dur_us = 0.0;
          s_depth = t.depth;
          s_args = args;
        } )
      :: t.events

let spans t =
  List.map snd
    (List.sort (fun (a, _) (b, _) -> compare a b) t.events)

let span_count t = List.length t.events

(* Chrome trace_event format: complete ("X") events, one process, one
   thread. Loadable in chrome://tracing and ui.perfetto.dev. *)
let chrome_value t =
  let event s =
    Jsonin.Obj
      ([
         ("name", Jsonin.Str s.s_name);
         ("cat", Str s.s_cat);
         ("ph", Str "X");
         ("ts", Float s.s_start_us);
         ("dur", Float s.s_dur_us);
         ("pid", Int 1);
         ("tid", Int 1);
       ]
      @
      if s.s_args = [] then []
      else [ ("args", Obj (List.map (fun (k, v) -> (k, Jsonin.Str v)) s.s_args)) ])
  in
  Jsonin.Obj
    [ ("displayTimeUnit", Str "ms"); ("traceEvents", List (List.map event (spans t))) ]

let to_chrome_json t = Jsonin.print (chrome_value t)

let save_chrome t path = Jsonin.save path (chrome_value t)

let summary t =
  let buf = Buffer.create 512 in
  let ss = spans t in
  let width =
    List.fold_left
      (fun w s -> max w ((2 * s.s_depth) + String.length s.s_name))
      0 ss
  in
  List.iter
    (fun s ->
      let label = String.make (2 * s.s_depth) ' ' ^ s.s_name in
      Buffer.add_string buf
        (Printf.sprintf "  %-*s %10.3f ms%s\n" (max width 8) label
           (s.s_dur_us /. 1000.0)
           (match s.s_args with
           | [] -> ""
           | args ->
             "  ("
             ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) args)
             ^ ")")))
    ss;
  Buffer.contents buf
