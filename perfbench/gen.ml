(* Seeded generator of large Mini programs for the benchmark.

   A program is a layered call DAG: routine [fN] in layer L calls only
   routines of lower layers, so the direct calls alone can never
   recurse. Recursion enters in two bounded forms, each carrying an
   explicit depth argument that decreases on every call:

   - self-recursive routines [rN(d, x)], which call themselves;
   - mutually recursive pairs [mN(d, x)]/[nN(d, x)], which the gprof
     post-processor collapses into a cycle.

   Indirect calls go through one global dispatch table [tbl]: a
   dispatcher [dN(x)] calls [tbl[x % size]]. Dispatchers live at or
   above [dispatch_layer] and every table entry is a plain routine
   strictly below it, so no entry can reach an indirect call site —
   the unbounded-recursion trap ("call depth limit exceeded") a naive
   generator falls into. [reaches_dispatch] re-checks this on the
   generated structure.

   Every value stays in [0, 10007) (constant moduli only, no
   subtraction, no division), so array indices are in range and no
   operation can fault. The dynamic cost of each routine is estimated
   bottom-up and callees are chosen to keep it under [budget], which
   bounds the whole run.

   The generator has its own PRNG (splitmix64), so the programs depend
   on the seed alone, not on any library under measurement. *)

module Rng = struct
  type t = { mutable s : int64 }

  let create seed = { s = Int64.of_int seed }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* uniform in [0, n) *)
  let int t n = Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int n))

  let range t lo hi = lo + int t (hi - lo + 1)

  let chance t pct = int t 100 < pct
end

type params = {
  routines : int;  (** routines besides [main] *)
  layers : int;
  stmts : int;  (** upper bound on arithmetic statements per body *)
  fanout : int;  (** upper bound on direct callees per routine *)
  budget : int;  (** cap on the estimated instructions of one call *)
  loops : int;  (** percent of routines with a loop around a cheap callee *)
  trips : int;  (** upper bound on that loop's trip count *)
  table : int;  (** dispatch-table entries *)
  rand : bool;  (** let the VM's seeded [rand] steer some branches *)
}

let bigprog =
  { routines = 500; layers = 12; stmts = 4; fanout = 3; budget = 4000;
    loops = 40; trips = 12; table = 8; rand = false }

let fleet =
  { routines = 60; layers = 6; stmts = 10; fanout = 3; budget = 6000;
    loops = 40; trips = 12; table = 6; rand = true }

type kind = Plain | Self_rec | Mutual_a | Mutual_b | Dispatch

type routine = {
  name : string;
  kind : kind;
  layer : int;
  mutable calls : string list;  (** direct callees, in source order *)
  mutable cost : int;  (** estimated instructions of one call *)
}

type t = {
  source : string;
  routines : routine array;
  table_entries : string array;
  dispatch_layer : int;
}

(* the layer from which dispatchers may appear; table entries sit
   strictly below it *)
let dispatch_layer p = max 2 (p.layers / 2)

let kind_of rng ~layer ~dl =
  if layer = 0 then Plain
  else
    let r = Rng.int rng 100 in
    if layer >= dl && r < 8 then Dispatch
    else if r < 14 then Self_rec
    else if r < 20 then Mutual_a
    else Plain

let arith rng buf n =
  for _ = 1 to n do
    let a = Rng.range rng 2 31 and b = Rng.range rng 1 997 in
    match Rng.int rng 3 with
    | 0 -> Printf.bprintf buf "  s = (s * %d + %d) %% 10007;\n" a b
    | 1 -> Printf.bprintf buf "  s = (s + x * %d + %d) %% 10007;\n" a b
    | _ -> Printf.bprintf buf "  if (s %% %d < %d) { s = (s + %d) %% 10007; }\n" a (a / 2) b
  done

let generate ~seed p =
  let rng = Rng.create seed in
  let dl = dispatch_layer p in
  (* layer 0 gets a larger share: it holds the leaves *)
  let layer_of i =
    let base = p.routines / (p.layers + 1) in
    if i < 2 * base then 0 else min (p.layers - 1) (1 + ((i - (2 * base)) / max 1 base))
  in
  let rs =
    Array.init p.routines (fun i ->
        let layer = layer_of i in
        let kind = kind_of rng ~layer ~dl in
        { name = ""; kind; layer; calls = []; cost = 0 })
  in
  (* a mutual pair is two consecutive slots of one layer *)
  Array.iteri
    (fun i r ->
      if r.kind = Mutual_a then
        if i + 1 < p.routines && rs.(i + 1).layer = r.layer
           && rs.(i + 1).kind <> Mutual_a
        then rs.(i + 1) <- { (rs.(i + 1)) with kind = Mutual_b }
        else rs.(i) <- { r with kind = Plain })
    rs;
  let rs =
    Array.mapi
      (fun i r ->
        let prefix =
          match r.kind with
          | Plain -> "f" | Self_rec -> "r" | Mutual_a -> "m" | Mutual_b -> "n"
          | Dispatch -> "d"
        in
        { r with name = Printf.sprintf "%s%d" prefix i })
      rs
  in
  let entries =
    let pool =
      Array.to_list rs
      |> List.filter (fun r -> r.kind = Plain && r.layer < dl)
      |> Array.of_list
    in
    Array.init p.table (fun _ -> pool.(Rng.int rng (Array.length pool)))
  in
  let called = Hashtbl.create 64 in
  let buf = Buffer.create (p.routines * 400) in
  Printf.bprintf buf "array tbl[%d];\n" p.table;
  (* a recursive routine's depth argument, 2-4, the same at every call
     site so its cost estimate holds *)
  let depth_of r = 2 + (String.length r.name mod 3) in
  (* the call expression for [callee] and its estimated cost *)
  let call_of callee arg =
    match callee.kind with
    | Self_rec | Mutual_a ->
      let d = depth_of callee in
      (Printf.sprintf "%s(%d, %s)" callee.name d arg, (d + 1) * callee.cost)
    | Mutual_b -> assert false
    | Plain | Dispatch -> (Printf.sprintf "%s(%s)" callee.name arg, callee.cost)
  in
  let candidates r =
    Array.to_list rs
    |> List.filter (fun c -> c.layer < r.layer && c.kind <> Mutual_b)
  in
  let pick_callees r ~room =
    let cands = Array.of_list (candidates r) in
    let n = Array.length cands in
    let chosen = ref [] and spent = ref 0 in
    if n > 0 then begin
      let want = Rng.range rng 1 p.fanout in
      let tries = ref 0 in
      (* prefer a routine nobody calls yet, then any that fits *)
      let uncalled =
        Array.to_list cands
        |> List.filter (fun c -> not (Hashtbl.mem called c.name))
        |> Array.of_list
      in
      while List.length !chosen < want && !tries < 4 * want do
        incr tries;
        let c =
          if Array.length uncalled > 0 && Rng.chance rng 70 then
            uncalled.(Rng.int rng (Array.length uncalled))
          else cands.(Rng.int rng n)
        in
        let _, cost = call_of c "s" in
        if (not (List.memq c !chosen)) && !spent + cost + 12 <= room then begin
          chosen := c :: !chosen;
          spent := !spent + cost + 12;
          Hashtbl.replace called c.name ()
        end
      done
    end;
    (List.rev_map (fun c -> (c, 1)) !chosen, !spent)
  in
  (* a loop around one cheap callee: the hot, small arcs that
     profile-driven inlining looks for *)
  let pick_loop r ~room =
    let cheap =
      candidates r
      |> List.filter (fun c -> c.kind = Plain && c.cost > 0 && c.cost <= 60)
      |> Array.of_list
    in
    if Array.length cheap = 0 || not (Rng.chance rng p.loops) then None
    else
      let c = cheap.(Rng.int rng (Array.length cheap)) in
      let trips = min (Rng.range rng 4 p.trips) (room / (c.cost + 14)) in
      if trips < 2 then None
      else begin
        Hashtbl.replace called c.name ();
        Some (c, trips)
      end
  in
  let emit_body r ~head =
    let n = Rng.range rng 1 p.stmts in
    let own = 8 + (n * 9) in
    let callees, spent = pick_callees r ~room:(p.budget - own) in
    let loop = pick_loop r ~room:(p.budget - own - spent) in
    Printf.bprintf buf "%s" head;
    if p.rand && Rng.chance rng 30 then
      Printf.bprintf buf "  s = (s + rand(%d)) %% 10007;\n" (Rng.range rng 2 50);
    arith rng buf n;
    List.iter
      (fun (c, _) ->
        let e, _ = call_of c "s" in
        if Rng.chance rng 25 then
          Printf.bprintf buf "  if (s %% 3 < 2) { s = (s + %s) %% 10007; }\n" e
        else Printf.bprintf buf "  s = (s + %s) %% 10007;\n" e)
      callees;
    let looped =
      match loop with
      | None -> 0
      | Some (c, trips) ->
        Printf.bprintf buf
          "  var i;\n  for (i = 0; i < %d; i = i + 1) { s = (s + %s(s + i)) %% 10007; }\n"
          trips c.name;
        trips * (c.cost + 14)
    in
    r.calls <-
      List.map (fun (c, _) -> c.name) callees
      @ Option.to_list (Option.map (fun (c, _) -> c.name) loop);
    r.cost <- own + spent + looped
  in
  Array.iteri
    (fun i r ->
      match r.kind with
      | Plain when r.layer = 0 && Rng.chance rng 35 ->
        (* a lone return: the shape the inliner accepts *)
        Printf.bprintf buf "fun %s(x) {\n  return (x * %d + %d) %% 10007;\n}\n\n" r.name
          (Rng.range rng 2 31) (Rng.range rng 1 997);
        r.cost <- 10
      | Plain ->
        emit_body r ~head:(Printf.sprintf "fun %s(x) {\n  var s = x %% 10007;\n" r.name);
        Printf.bprintf buf "  return s;\n}\n\n"
      | Self_rec ->
        emit_body r
          ~head:
            (Printf.sprintf
               "fun %s(d, x) {\n  var s = x %% 10007;\n  if (d > 0) { s = (s + %s(d - 1, s + 1)) %% 10007; }\n"
               r.name r.name);
        Printf.bprintf buf "  return s;\n}\n\n"
      | Mutual_a ->
        let b = rs.(i + 1) in
        emit_body r
          ~head:
            (Printf.sprintf
               "fun %s(d, x) {\n  var s = x %% 10007;\n  if (d > 0) { s = (s + %s(d - 1, s + 2)) %% 10007; }\n"
               r.name b.name);
        Printf.bprintf buf "  return s;\n}\n\n";
        let a_cost = r.cost in
        emit_body b
          ~head:
            (Printf.sprintf
               "fun %s(d, x) {\n  var s = x %% 10007;\n  if (d > 0) { s = (s + %s(d - 1, s + 3)) %% 10007; }\n"
               b.name r.name);
        Printf.bprintf buf "  return s;\n}\n\n";
        (* one call of the pair alternates a and b, so price it as
           their sum *)
        r.cost <- a_cost + b.cost;
        r.calls <- r.calls @ [ b.name ];
        b.calls <- b.calls @ [ r.name ]
      | Mutual_b -> ()
      | Dispatch ->
        let entry_cost = Array.fold_left (fun m e -> max m e.cost) 0 entries in
        emit_body r
          ~head:
            (Printf.sprintf
               "fun %s(x) {\n  var g = tbl[x %% %d];\n  var s = g(x) %% 10007;\n"
               r.name p.table);
        Printf.bprintf buf "  return s;\n}\n\n";
        r.cost <- r.cost + entry_cost + 12)
    rs;
  (* main fills the table, then calls the top layer and every routine
     nobody else calls, so the whole program runs *)
  Buffer.add_string buf "fun main() {\n  var s = 0;\n";
  Array.iteri
    (fun k e -> Printf.bprintf buf "  tbl[%d] = %s;\n" k e.name)
    entries;
  Array.iteri
    (fun k r ->
      if r.kind <> Mutual_b && not (Hashtbl.mem called r.name) then begin
        let e, _ = call_of r (string_of_int (k + 1)) in
        Printf.bprintf buf "  s = (s + %s) %% 1000003;\n" e;
        if k mod 50 = 0 then Buffer.add_string buf "  print(s);\n"
      end)
    rs;
  Buffer.add_string buf "  print(s);\n  return 0;\n}\n";
  {
    source = Buffer.contents buf;
    routines = rs;
    table_entries = Array.map (fun r -> r.name) entries;
    dispatch_layer = dl;
  }

(* Whether some table entry can reach a dispatcher through the
   generated call structure (direct calls, and a dispatcher's
   indirect call to every entry). Always false by construction. *)
let reaches_dispatch t =
  let by_name = Hashtbl.create 64 in
  Array.iter (fun r -> Hashtbl.replace by_name r.name r) t.routines;
  let succs r =
    if r.kind = Dispatch then r.calls @ Array.to_list t.table_entries else r.calls
  in
  let seen = Hashtbl.create 64 in
  let rec reach name =
    if Hashtbl.mem seen name then false
    else begin
      Hashtbl.replace seen name ();
      let r = Hashtbl.find by_name name in
      r.kind = Dispatch || List.exists reach (succs r)
    end
  in
  Array.exists
    (fun e ->
      Hashtbl.reset seen;
      reach e)
    t.table_entries
