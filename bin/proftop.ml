(* proftop — a top(1)-style live monitor for a running profd.

   Polls QUERY metrics and QUERY health over the daemon's socket and
   renders what an operator wants at a glance: ingest and shed rates
   over the last interval, queue occupancy, connection pressure,
   per-verb RPC latency quantiles estimated from the log2 histogram
   buckets, and per-shard store occupancy.

   The same binary is the offline half of the telemetry story:

     proftop --once --json          one poll, machine-readable (gates)
     proftop --diff A.json B.json   subtract two metrics snapshots
     proftop --telemetry FILE       verify a telemetry JSONL series

   Everything here works from the serialized registry alone
   (Obs.Snapshot); proftop never links against the daemon's state. *)

open Cmdliner

let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "proftop: %s\n" s; Error 1) fmt

(* --- wire helpers ------------------------------------------------------ *)

let rpc ~socket ~attempts req =
  match Proto.rpc ~attempts ~socket req with
  | Error e -> fail "%s" e
  | Ok (Proto.Resp_busy retry) -> fail "daemon overloaded (retry after %.3gs)" retry
  | Ok (Proto.Resp_err e) -> fail "daemon: %s" e
  | Ok (Proto.Resp_ok payload) -> Ok payload

let poll ~socket ~attempts =
  let check what = function Ok v -> Ok v | Error e -> fail "%s: %s" what e in
  let ( let* ) = Result.bind in
  let* mjson = rpc ~socket ~attempts Proto.Query_metrics in
  let* hjson = rpc ~socket ~attempts Proto.Query_health in
  let* metrics = check "metrics" (Obs.Jsonin.parse mjson) in
  let* snap = check "metrics" (Obs.Snapshot.of_value metrics) in
  let* health = check "health" (Obs.Jsonin.parse hjson) in
  Ok (metrics, snap, health)

(* --- derived views ----------------------------------------------------- *)

(* the per-verb latency table, from histogram names profd.rpc.<verb>.latency *)
let rpc_rows (snap : Obs.Snapshot.t) =
  List.filter_map
    (fun (name, h) ->
      let pre = "profd.rpc." and suf = ".latency" in
      let pl = String.length pre and sl = String.length suf in
      let n = String.length name in
      if n > pl + sl
         && String.sub name 0 pl = pre
         && String.sub name (n - sl) sl = suf
      then Some (String.sub name pl (n - pl - sl), h)
      else None)
    snap.Obs.Snapshot.histograms

let mean (h : Obs.Snapshot.hist) =
  if h.h_count = 0 then 0.0 else float_of_int h.h_sum /. float_of_int h.h_count

let derived snap =
  let row (verb, (h : Obs.Snapshot.hist)) =
    ( verb,
      Obs.Jsonin.Obj
        [
          ("count", Int h.h_count);
          ("mean_us", Float (mean h));
          ("p50_us", Float (Obs.Snapshot.hist_quantile h 0.5));
          ("p90_us", Float (Obs.Snapshot.hist_quantile h 0.9));
          ("p99_us", Float (Obs.Snapshot.hist_quantile h 0.99));
          ("max_us", Int h.h_max);
        ] )
  in
  Obs.Jsonin.Obj [ ("rpc", Obj (List.map row (rpc_rows snap))) ]

(* --- rendering --------------------------------------------------------- *)

let jget v path =
  List.fold_left
    (fun acc k -> Option.bind acc (fun v -> Obs.Jsonin.member k v))
    (Some v) path

let jint v path = Option.bind (jget v path) Obs.Jsonin.to_int |> Option.value ~default:0

let jstr v path =
  Option.bind (jget v path) Obs.Jsonin.to_string |> Option.value ~default:"?"

let jfloat v path =
  Option.bind (jget v path) Obs.Jsonin.to_float |> Option.value ~default:0.0

let bar width frac =
  let frac = Float.max 0.0 (Float.min 1.0 frac) in
  let full = int_of_float (frac *. float_of_int width) in
  String.concat "" [ String.make full '#'; String.make (width - full) '.' ]

let render ~socket ~prev ~elapsed (snap : Obs.Snapshot.t) health =
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "proftop — profd %s  pid %d  up %.1fs  %s\n" (jstr health [ "version" ])
    (jint health [ "pid" ])
    (jfloat health [ "uptime" ])
    socket;
  let qp = jint health [ "queue"; "pending" ] and qc = jint health [ "queue"; "cap" ] in
  let ca = jint health [ "conns"; "active" ] and cm = jint health [ "conns"; "max" ] in
  let qfrac = if qc = 0 then 0.0 else float_of_int qp /. float_of_int qc in
  add "queue  [%s] %d/%d (%.1f%%)   conns %d/%d\n" (bar 24 qfrac) qp qc
    (100.0 *. qfrac) ca cm;
  add
    "store  %d shard(s)  %d segment(s)  %d run(s)  %d quarantined  last \
     compact seq %d  %d bytes\n"
    (jint health [ "store"; "shards" ])
    (jint health [ "store"; "segments" ])
    (jint health [ "store"; "total_runs" ])
    (jint health [ "store"; "quarantined" ])
    (jint health [ "store"; "last_compact_seq" ])
    (jint health [ "store"; "disk_bytes" ]);
  (* rates need two polls: everything here is the delta since the
     previous frame, scaled to per-second *)
  (match prev with
  | Some before when elapsed > 0.0 ->
    let d = Obs.Snapshot.diff ~before ~after:snap in
    let dc name =
      Option.value ~default:0 (Obs.Snapshot.find_counter d name)
    in
    let per name = float_of_int (dc name) /. elapsed in
    let submitted = dc "ingest.submitted" and shed = dc "profd.shed.overload" in
    let offered = submitted + shed in
    let shed_pct =
      if offered = 0 then 0.0
      else 100.0 *. float_of_int shed /. float_of_int offered
    in
    add
      "last %.1fs  submit %.1f/s  shed %.1f/s (%.1f%%)  requests %.1f/s  in \
       %.0f B/s  out %.0f B/s\n"
      elapsed
      (per "ingest.submitted")
      (per "profd.shed.overload")
      shed_pct
      (per "profd.requests")
      (per "profd.bytes.read")
      (per "profd.bytes.written")
  | _ ->
    add "last —  (rates appear after the second refresh)\n");
  add "\n%-10s %10s %10s %10s %10s %10s %10s\n" "rpc" "count" "mean(µs)"
    "p50(µs)" "p90(µs)" "p99(µs)" "max(µs)";
  let rows = rpc_rows snap in
  let rows =
    List.sort
      (fun (_, a) (_, (b : Obs.Snapshot.hist)) -> compare b.h_count a.Obs.Snapshot.h_count)
      rows
  in
  List.iter
    (fun (verb, (h : Obs.Snapshot.hist)) ->
      add "%-10s %10d %10.1f %10.1f %10.1f %10.1f %10d\n" verb h.h_count
        (mean h)
        (Obs.Snapshot.hist_quantile h 0.5)
        (Obs.Snapshot.hist_quantile h 0.9)
        (Obs.Snapshot.hist_quantile h 0.99)
        h.h_max)
    rows;
  if rows = [] then add "(no RPCs yet)\n";
  (match jget health [ "store"; "per_shard" ] with
  | Some (Obs.Jsonin.List shards) when shards <> [] ->
    add "\n%-6s %10s %12s %12s\n" "shard" "segments" "sprof-segs" "compact-seq";
    List.iter
      (fun sh ->
        add "%-6d %10d %12d %12d\n"
          (jint sh [ "shard" ])
          (jint sh [ "segments" ])
          (jint sh [ "sprof_segments" ])
          (jint sh [ "compact_seq" ]))
      shards
  | _ -> ());
  Buffer.contents b

(* --- modes ------------------------------------------------------------- *)

let once ~socket ~attempts ~json =
  match poll ~socket ~attempts with
  | Error c -> c
  | Ok (metrics, snap, health) ->
    if json then
      (* both answers as parsed plus the derived quantile table — one
         object a gate can feed straight to a JSON parser *)
      print_endline
        (Obs.Jsonin.print
           (Obj [ ("health", health); ("metrics", metrics); ("derived", derived snap) ]))
    else print_string (render ~socket ~prev:None ~elapsed:0.0 snap health);
    0

let live ~socket ~attempts ~interval ~count =
  let clear () = print_string "\027[2J\027[H" in
  let stop = ref false in
  (* a clean exit on Ctrl-C so the terminal is left usable *)
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
  let rec go frame prev prev_t code =
    if !stop || (count > 0 && frame >= count) then code
    else
      match poll ~socket ~attempts with
      | Error c -> c
      | Ok (_, snap, health) ->
        let now = Unix.gettimeofday () in
        let elapsed = match prev_t with Some t -> now -. t | None -> 0.0 in
        clear ();
        print_string (render ~socket ~prev ~elapsed snap health);
        flush stdout;
        if not !stop then Unix.sleepf interval;
        go (frame + 1) (Some snap) (Some now) 0
  in
  go 0 None None 0

let diff_files ~json:_ a b =
  (* accept a bare metrics registry (--obs-metrics, QUERY metrics) or
     the composite object proftop --once --json writes *)
  let load p =
    match In_channel.with_open_bin p In_channel.input_all with
    | exception Sys_error e -> fail "%s" e
    | body -> (
      match Obs.Jsonin.parse body with
      | Error e -> fail "%s: %s" p e
      | Ok v -> (
        let v =
          match Obs.Jsonin.member "metrics" v with
          | Some m when Obs.Jsonin.member "counters" v = None -> m
          | _ -> v
        in
        match Obs.Snapshot.of_value v with
        | Ok s -> Ok s
        | Error e -> fail "%s: %s" p e))
  in
  match load a with
  | Error c -> c
  | Ok before -> (
    match load b with
    | Error c -> c
    | Ok after ->
      let d = Obs.Snapshot.diff ~before ~after in
      print_string (Obs.Snapshot.to_json d);
      print_newline ();
      (match Obs.Snapshot.monotonic_violations ~before ~after with
      | [] -> 0
      | vs ->
        List.iter
          (fun (name, bv, av) ->
            Printf.eprintf "proftop: %s moved backwards: %d -> %d\n" name bv av)
          vs;
        2))

let verify_telemetry ~json path =
  match Obs.Timeseries.read path with
  | Error e ->
    Printf.eprintf "proftop: %s\n" e;
    1
  | Ok (records, complaints) ->
    (* the series is healthy when every line verified and no counter
       ever moved backwards between consecutive snapshots of one
       daemon process. Counters are per-process while seq continues
       across restarts, so a restart boundary legitimately resets
       them; profd.telemetry.records increments exactly once per
       appended record, which makes any backward move of it a reliable
       restart marker — such pairs are skipped, not flagged. *)
    let restarts = ref 0 in
    let violations =
      let tele s =
        Option.value ~default:0
          (Obs.Snapshot.find_counter s "profd.telemetry.records")
      in
      let rec go acc = function
        | a :: (b :: _ as rest) ->
          let before = a.Obs.Timeseries.r_metrics
          and after = b.Obs.Timeseries.r_metrics in
          if tele after < tele before then begin
            incr restarts;
            go acc rest
          end
          else
            let vs =
              Obs.Snapshot.monotonic_violations ~before ~after
              |> List.map (fun (name, bv, av) ->
                     Printf.sprintf
                       "seq %d -> %d: %s moved backwards (%d -> %d)"
                       a.Obs.Timeseries.r_seq b.Obs.Timeseries.r_seq name bv av)
            in
            go (acc @ vs) rest
        | _ -> acc
      in
      go [] records
    in
    let seqs = List.map (fun r -> r.Obs.Timeseries.r_seq) records in
    let seq_ok =
      let rec mono = function
        | a :: (b :: _ as rest) -> a < b && mono rest
        | _ -> true
      in
      mono seqs
    in
    let ok = complaints = [] && violations = [] && seq_ok in
    if json then begin
      let seq_at = function s :: _ -> s | [] -> 0 in
      print_endline
        (Obs.Jsonin.print
           (Obj
              [
                ("records", Int (List.length records));
                ("damaged", Int (List.length complaints));
                ("first_seq", Int (seq_at seqs));
                ("last_seq", Int (seq_at (List.rev seqs)));
                ("seq_monotonic", Bool seq_ok);
                ("restarts", Int !restarts);
                ("violations", List (List.map (fun v -> Obs.Jsonin.Str v) violations));
                ("ok", Bool ok);
              ]))
    end
    else begin
      Printf.printf "%s: %d record(s), %d damaged line(s), %d restart(s), seq %s\n"
        path (List.length records) (List.length complaints) !restarts
        (if seq_ok then "monotonic" else "NOT MONOTONIC");
      List.iter (fun c -> Printf.printf "  damaged: %s\n" c) complaints;
      List.iter (fun v -> Printf.printf "  violation: %s\n" v) violations
    end;
    if ok then 0 else 2

let run socket attempts interval count once_flag json diff_flag telemetry files
    =
  match (telemetry, diff_flag) with
  | Some path, _ -> verify_telemetry ~json path
  | None, true -> (
    match files with
    | [ a; b ] -> diff_files ~json a b
    | _ ->
      Printf.eprintf "proftop: --diff wants exactly two metrics JSON files\n";
      1)
  | None, false ->
    if once_flag then once ~socket ~attempts ~json
    else live ~socket ~attempts ~interval ~count

(* --- command line ------------------------------------------------------ *)

let socket =
  Arg.(value & opt string "profd.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"The daemon's Unix-domain socket.")

let retries =
  Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N"
         ~doc:"Attempts per poll (with backoff; BUSY honors retry-after).")

let interval =
  Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECONDS"
         ~doc:"Refresh period of the live display.")

let count =
  Arg.(value & opt int 0 & info [ "count" ] ~docv:"N"
         ~doc:"Stop after $(docv) refreshes (0 = until Ctrl-C).")

let once_flag =
  Arg.(value & flag & info [ "once" ]
         ~doc:"Poll once, print one frame, exit.")

let json =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Machine-readable output: with --once, one object holding \
               the daemon's health and metrics answers plus derived \
               latency quantiles; with --telemetry, the verification \
               summary.")

let diff_flag =
  Arg.(value & flag & info [ "diff" ]
         ~doc:"Offline: subtract two metrics JSON files (positional \
               $(i,BEFORE) $(i,AFTER) — from --obs-metrics, QUERY \
               metrics, or proftop --once) and print the delta registry \
               as JSON. Exits 2 when a counter moved backwards.")

let telemetry =
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE"
         ~doc:"Offline: verify a --telemetry-out JSONL series — per-line \
               checksums, monotonic record seq, monotonic counters \
               between consecutive snapshots. Exits 2 on any damage.")

let files =
  Arg.(value & pos_all string [] & info [] ~docv:"FILE"
         ~doc:"Metrics JSON files for --diff.")

let cmd =
  Cmd.v
    (Cmd.info "proftop" ~doc:"live monitor for the profile aggregation daemon"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "proftop polls a running profd over its socket (QUERY metrics \
              and QUERY health) and renders a top-like live view: ingest \
              and shed rates, queue occupancy, connection pressure, \
              per-verb RPC latency quantiles estimated from the log2 \
              histogram buckets, and per-shard store occupancy. One-shot \
              and offline modes (--once --json, --diff, --telemetry) make \
              the same numbers available to scripts and CI gates.";
         ])
    Term.(
      const run $ socket $ retries $ interval $ count $ once_flag $ json
      $ diff_flag $ telemetry $ files)

let () = exit (Cmd.eval' cmd)
