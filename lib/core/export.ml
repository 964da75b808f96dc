(* Exporters: folded stacks, callgrind, JSON, and the epoch-timeline
   digest. Everything here renders an already-computed analysis; no
   new profile semantics live in this file. *)

let round_ticks f = int_of_float (Float.round f)

(* ------------------------------------------------------------------ *)
(* Folded stacks                                                       *)

(* The profile stores an arc graph, not complete stacks, so each
   routine's line shows the dominant path to it: follow the heaviest
   parent upward until <spontaneous> or a repeat. Heaviness is the
   propagated time an arc carried, with the traversal count breaking
   ties (interval profiles can have arcs with calls but no samples). *)

let heaviest_parent views =
  List.fold_left
    (fun best (v : Profile.arc_view) ->
      match v.av_other with
      | Profile.Spontaneous -> best
      | _ -> (
        let w = (v.av_self +. v.av_child, v.av_count) in
        match best with
        | Some (bw, _) when bw >= w -> best
        | _ -> Some (w, v.av_other)))
    None views
  |> Option.map snd

let dominant_path (p : Profile.t) id =
  let rec up party visited acc =
    if List.mem party visited then acc
    else
      let parents =
        match party with
        | Profile.Func i -> p.entries.(i).e_parents
        | Profile.Cycle n -> p.cycles.(n - 1).c_parents
        | Profile.Spontaneous -> []
      in
      match heaviest_parent parents with
      | None -> acc
      | Some parent -> (
        match parent with
        | Profile.Spontaneous -> acc
        | _ -> up parent (party :: visited) (parent :: acc))
  in
  up (Profile.Func id) [] [ Profile.Func id ]

let folded_stacks (p : Profile.t) =
  let b = Buffer.create 1024 in
  Array.iteri
    (fun id (e : Profile.entry) ->
      let ticks = round_ticks e.e_ticks in
      if ticks > 0 then begin
        let path = dominant_path p id in
        List.iteri
          (fun i party ->
            if i > 0 then Buffer.add_char b ';';
            Buffer.add_string b (Profile.party_name p party))
          path;
        Buffer.add_string b (Printf.sprintf " %d\n" ticks)
      end)
    p.entries;
  Buffer.contents b

(* Sampled profiles carry complete stacks, so no dominant-path
   reconstruction is needed: each interned stack renders as exactly
   the path that was live, weighted by its sample count. *)
let folded_sampled st (sp : Gmon.Sprof.t) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (stack, count) ->
      let names =
        Array.to_list stack
        |> List.filter_map (fun addr ->
               Option.map (Symtab.name st) (Symtab.id_of_entry st addr))
      in
      if names <> [] then
        Buffer.add_string b
          (Printf.sprintf "%s %d\n" (String.concat ";" names) count))
    sp.Gmon.Sprof.sp_stacks;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Callgrind                                                           *)

(* One fn= record per routine carrying its self cost at its entry
   address, one cfn=/calls= record per outgoing arc carrying the
   arc's propagated inclusive cost. Events are clock ticks, matching
   what the profiler actually measured. *)

let callgrind (p : Profile.t) =
  let st = p.symtab in
  let b = Buffer.create 4096 in
  let spt = p.seconds_per_tick in
  let ticks_of seconds =
    if spt > 0.0 then round_ticks (seconds /. spt) else 0
  in
  Buffer.add_string b "# callgrind format\n";
  Buffer.add_string b "version: 1\ncreator: gprof-repro\n";
  Buffer.add_string b "positions: line\nevents: ticks\n";
  Buffer.add_string b
    (Printf.sprintf "summary: %d\n\n" (ticks_of p.total_time));
  Array.iteri
    (fun id (e : Profile.entry) ->
      let self = round_ticks e.e_ticks in
      let has_arcs = e.e_children <> [] in
      if self > 0 || has_arcs || e.e_calls > 0 || e.e_self_calls > 0 then begin
        let pos = Symtab.entry st id in
        Buffer.add_string b (Printf.sprintf "fn=%s\n" (Symtab.name st id));
        Buffer.add_string b (Printf.sprintf "%d %d\n" pos self);
        List.iter
          (fun (v : Profile.arc_view) ->
            let cname, cpos =
              match v.av_other with
              | Profile.Func cid -> (Symtab.name st cid, Symtab.entry st cid)
              | Profile.Cycle n -> (Profile.party_name p (Profile.Cycle n), 0)
              | Profile.Spontaneous -> ("<spontaneous>", 0)
            in
            Buffer.add_string b (Printf.sprintf "cfn=%s\n" cname);
            Buffer.add_string b
              (Printf.sprintf "calls=%d %d\n" v.av_count cpos);
            Buffer.add_string b
              (Printf.sprintf "%d %d\n" pos
                 (ticks_of (v.av_self +. v.av_child))))
          e.e_children;
        Buffer.add_char b '\n'
      end)
    p.entries;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let schema_id = "gprof-repro.report/1"

module J = Obs.Jsonin

let jindex (p : Profile.t) party =
  match Profile.display_index p party with Some i -> J.Int i | None -> J.Null

let jnames (p : Profile.t) ids =
  J.List (List.map (fun id -> J.Str (Symtab.name p.symtab id)) ids)

let jarcs (p : Profile.t) views =
  J.List
    (List.map
       (fun (v : Profile.arc_view) ->
         J.Obj
           [
             ("name", Str (Profile.party_name p v.av_other));
             ("index", jindex p v.av_other);
             ("count", Int v.av_count);
             ("total", Int v.av_total);
             ("self_seconds", Float v.av_self);
             ("descendant_seconds", Float v.av_child);
             ("intra_cycle", Bool v.av_intra);
           ])
       views)

let jgraph_entry (p : Profile.t) party =
  match party with
  | Profile.Spontaneous -> J.Null (* never listed; keep the array well-formed *)
  | Profile.Func id ->
    let e = p.entries.(id) in
    J.Obj
      [
        ("kind", Str "routine");
        ("index", jindex p party);
        ("name", Str (Symtab.name p.symtab id));
        ("cycle", Int e.e_cycle);
        ("percent_time", Float (Profile.percent_time p party));
        ("self_seconds", Float e.e_self);
        ("descendant_seconds", Float e.e_child);
        ("calls", Int e.e_calls);
        ("self_calls", Int e.e_self_calls);
        ("parents", jarcs p e.e_parents);
        ("children", jarcs p e.e_children);
      ]
  | Profile.Cycle n ->
    let c = p.cycles.(n - 1) in
    J.Obj
      [
        ("kind", Str "cycle");
        ("index", jindex p party);
        ("number", Int c.c_no);
        ("members", jnames p c.c_members);
        ("percent_time", Float (Profile.percent_time p party));
        ("self_seconds", Float c.c_self);
        ("descendant_seconds", Float c.c_child);
        ("calls", Int c.c_calls);
        ("intra_calls", Int c.c_intra_calls);
        ("parents", jarcs p c.c_parents);
        ("members_views", jarcs p c.c_member_views);
      ]

let json_report (r : Report.t) =
  let p = r.profile in
  J.print
    (Obj
       [
         ("schema", Str schema_id);
         ("total_seconds", Float p.total_time);
         ("seconds_per_tick", Float p.seconds_per_tick);
         ("unattributed_seconds", Float p.unattributed);
         ("degraded", Bool (Report.degraded r));
         ("dropped_records", Int r.dropped_records);
         ("folded_records", Int r.folded_records);
         ( "removed_arcs",
           List
             (List.map
                (fun (f, t) -> J.List [ Str f; Str t ])
                (Report.removed_arc_names r)) );
         ( "flat",
           List
             (List.map
                (fun (id, self, cum, calls) ->
                  J.Obj
                    [
                      ("name", Str (Symtab.name p.symtab id));
                      (* the flat profile's %time is self-based, unlike
                         the graph's self+descendants share *)
                      ( "percent_time",
                        Float
                          (if p.total_time > 0.0 then
                             100.0 *. self /. p.total_time
                           else 0.0) );
                      ("self_seconds", Float self);
                      ("cumulative_seconds", Float cum);
                      ("calls", Int calls);
                    ])
                (Flat.rows p)) );
         ("graph", List (List.map (jgraph_entry p) (Array.to_list p.order)));
         ( "cycles",
           List
             (List.map
                (fun (c : Profile.cycle_entry) ->
                  J.Obj
                    [
                      ("number", Int c.c_no);
                      ("members", jnames p c.c_members);
                      ("self_seconds", Float c.c_self);
                      ("descendant_seconds", Float c.c_child);
                      ("calls", Int c.c_calls);
                      ("intra_calls", Int c.c_intra_calls);
                    ])
                (Array.to_list p.cycles)) );
         ("never_called", jnames p p.never_called);
       ])
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* Timeline digest                                                     *)

(* Self-seconds by routine name for one analyzed interval. *)
let self_by_name (p : Profile.t) =
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun id (e : Profile.entry) ->
      if e.e_self > 0.0 then
        Hashtbl.replace tbl (Symtab.name p.symtab id) e.e_self)
    p.entries;
  tbl

let mover_threshold = 0.0005 (* seconds; below this, clock noise *)

let timeline ?(options = Report.default_options) o (c : Gmon.Epoch.t) =
  if c.Gmon.Epoch.e_epochs = [] then Error "empty epoch container"
  else begin
    let b = Buffer.create 2048 in
    let tps = float_of_int c.Gmon.Epoch.e_ticks_per_second in
    Buffer.add_string b
      (Printf.sprintf "timeline: %d epoch(s), %d ticks/s\n"
         (Gmon.Epoch.n_epochs c) c.Gmon.Epoch.e_ticks_per_second);
    let rec go k prev_tick prev_tbl = function
      | [] -> Ok (Buffer.contents b)
      | (e : Gmon.Epoch.entry) :: rest -> (
        match Report.analyze ~options o (Gmon.Epoch.profile_of c e) with
        | Error msg -> Error (Printf.sprintf "epoch %d: %s" k msg)
        | Ok r ->
          let p = r.Report.profile in
          Buffer.add_string b
            (Printf.sprintf "epoch %d  [%.2fs .. %.2fs]\n" k
               (float_of_int prev_tick /. tps)
               (float_of_int e.ep_end_tick /. tps));
          let busiest =
            List.filter (fun (_, s) -> s > 0.0)
              (Array.to_list p.entries
              |> List.mapi (fun id (en : Profile.entry) ->
                     (Symtab.name p.symtab id, en.e_self))
              |> List.sort (fun (na, a) (nb, bv) ->
                     match compare bv a with 0 -> compare na nb | c -> c))
          in
          (match busiest with
          | [] -> Buffer.add_string b "  busiest: (no samples)\n"
          | _ ->
            Buffer.add_string b "  busiest:";
            List.iteri
              (fun i (name, s) ->
                if i < 3 then
                  Buffer.add_string b (Printf.sprintf " %s %.3fs" name s))
              busiest;
            Buffer.add_char b '\n');
          let cur_tbl = self_by_name p in
          (if k > 1 then begin
             let names = Hashtbl.create 64 in
             Hashtbl.iter (fun n _ -> Hashtbl.replace names n ()) cur_tbl;
             Hashtbl.iter (fun n _ -> Hashtbl.replace names n ()) prev_tbl;
             let movers =
               Hashtbl.fold
                 (fun n () acc ->
                   let before =
                     Option.value ~default:0.0 (Hashtbl.find_opt prev_tbl n)
                   in
                   let after =
                     Option.value ~default:0.0 (Hashtbl.find_opt cur_tbl n)
                   in
                   let d = after -. before in
                   if Float.abs d >= mover_threshold then
                     (n, before, after, d) :: acc
                   else acc)
                 names []
               |> List.sort (fun (na, _, _, da) (nb, _, _, db) ->
                      match compare (Float.abs db) (Float.abs da) with
                      | 0 -> compare na nb
                      | c -> c)
             in
             match movers with
             | [] -> Buffer.add_string b "  movers: (steady)\n"
             | _ ->
               Buffer.add_string b "  movers:";
               List.iteri
                 (fun i (n, before, after, d) ->
                   if i < 5 then
                     Buffer.add_string b
                       (Printf.sprintf " %s %+.3fs (%.3fs -> %.3fs)" n d
                          before after))
                 movers;
               Buffer.add_char b '\n'
           end);
          go (k + 1) e.ep_end_tick cur_tbl rest)
    in
    go 1 0 (Hashtbl.create 1) c.Gmon.Epoch.e_epochs
  end
