(* Golden bytes of every JSON emitter.

   Each section prints one emitter's output on a fixed input: the
   report of Figure 4 and of three stock workloads, the lint report,
   a metrics registry with an escaped name and the open top bucket, a
   snapshot diff, a telemetry line, the store statistics, a Chrome
   trace, and one event-log line. Host-time numbers (trace ts/dur,
   the event ts) are masked; everything else is printed as written.
   The dune rule diffs this output against json_golden.expected, so
   any change to an emitter's bytes shows up as a diff. *)

let section name body =
  Printf.printf "== %s\n%s" name body;
  if body = "" || body.[String.length body - 1] <> '\n' then print_char '\n'

(* Replace the number after each ["key":] with [#]. *)
let mask keys s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then ()
    else
      match
        List.find_opt
          (fun k ->
            let lit = Printf.sprintf "\"%s\":" k in
            let l = String.length lit in
            i + l <= n && String.sub s i l = lit)
          keys
      with
      | Some k ->
        let lit = Printf.sprintf "\"%s\":" k in
        Buffer.add_string b lit;
        Buffer.add_char b '#';
        let j = ref (i + String.length lit) in
        while
          !j < n
          && match s.[!j] with '0' .. '9' | '.' | '-' | 'e' | '+' -> true | _ -> false
        do
          incr j
        done;
        go !j
      | None ->
        Buffer.add_char b s.[i];
        go (i + 1)
  in
  go 0;
  Buffer.contents b

let reports () =
  (match
     Gprof_core.Report.analyze Workloads.Figure4.objfile Workloads.Figure4.gmon
   with
  | Ok r -> section "report figure4" (Gprof_core.Export.json_report r)
  | Error e -> failwith e);
  List.iter
    (fun w ->
      match Workloads.Driver.analyze w with
      | Ok (r, _) ->
        section
          ("report " ^ w.Workloads.Programs.w_name)
          (Gprof_core.Export.json_report r)
      | Error e -> failwith e)
    Workloads.Programs.[ quick; matrix; sort ]

let lint () =
  let l =
    Analysis.Proflint.lint Workloads.Figure4.objfile Workloads.Figure4.gmon
  in
  section "lint figure4"
    (Analysis.Proflint.to_json ~binary:"figure4" ~profiles:[ "figure4" ] [ l ])

let registry () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.incr ~by:7 (Obs.Metrics.counter reg "weird\"name\n");
  Obs.Metrics.incr ~by:2 (Obs.Metrics.counter reg "a.count");
  Obs.Metrics.set (Obs.Metrics.gauge reg "queue.depth") (-3);
  let h = Obs.Metrics.histogram reg "lat" in
  List.iter (Obs.Metrics.observe h) [ 0; 1; 5; 900; max_int ];
  reg

let metrics () =
  let reg = registry () in
  section "metrics" (Obs.Metrics.to_json reg);
  let before = Obs.Snapshot.of_registry reg in
  Obs.Metrics.incr ~by:5 (Obs.Metrics.counter reg "a.count");
  Obs.Metrics.incr (Obs.Metrics.counter reg "b.new");
  Obs.Metrics.set (Obs.Metrics.gauge reg "queue.depth") 11;
  List.iter (Obs.Metrics.observe (Obs.Metrics.histogram reg "lat")) [ 6; 7; 70 ];
  let after = Obs.Snapshot.of_registry reg in
  section "snapshot diff" (Obs.Snapshot.to_json (Obs.Snapshot.diff ~before ~after));
  section "telemetry line"
    (Obs.Timeseries.encode_line ~seq:3 ~ts:1754650000.25 after)

let store_stats () =
  let s =
    {
      Store.st_shards = 4;
      st_segments = 3;
      st_compacted_runs = 12;
      st_total_runs = 15;
      st_sprof_segments = 1;
      st_sprof_runs = 2;
      st_quarantined = 1;
      st_cache_hits = 40;
      st_cache_misses = 9;
      st_disk_bytes = 123456;
    }
  in
  section "store stats" (Obs.Jsonin.print (Store.stats_json s))

let trace () =
  let t = Obs.Trace.create () in
  Obs.Trace.set_enabled t true;
  Obs.Trace.with_span ~t ~args:[ ("file", "a\"b.gmon"); ("n", "3") ] "outer"
    (fun () ->
      Obs.Trace.with_span ~t ~cat:"vm" "inner" (fun () -> ());
      Obs.Trace.instant ~t "mark");
  section "trace" (mask [ "ts"; "dur" ] (Obs.Trace.to_chrome_json t))

let eventlog () =
  let path = Filename.temp_file "json_golden" ".jsonl" in
  (match Obs.Eventlog.open_file ~level:Obs.Eventlog.Debug path with
  | Error e -> failwith e
  | Ok log ->
    Obs.Eventlog.warn log "shed"
      [
        ("label", S "web\t7");
        ("pending", I (-2));
        ("ratio", F 0.125);
        ("retry", B true);
      ];
    Obs.Eventlog.close log);
  let body = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  section "event" (mask [ "ts" ] body)

let () =
  reports ();
  lint ();
  metrics ();
  store_stats ();
  trace ();
  eventlog ()
