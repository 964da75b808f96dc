module Instr = Objcode.Instr
module Objfile = Objcode.Objfile

type config = {
  cycles_per_tick : int;
  ticks_per_second : int;
  hist_bucket_size : int;
  keying : Monitor.keying;
  histogram : bool;
  monitoring : bool;
  oracle : bool;
  stack_interval : int option;
  stack_capacity : int option;
  count_instructions : bool;
  metrics : bool;
  tick_jitter : float;
  seed : int;
  max_cycles : int option;
  max_depth : int;
  fault_after_instr : int option;
  epoch_ticks : int option;
}

let default_config =
  {
    cycles_per_tick = 16_666;
    ticks_per_second = 60;
    hist_bucket_size = 1;
    keying = Monitor.Site_primary;
    histogram = true;
    monitoring = true;
    oracle = false;
    stack_interval = None;
    stack_capacity = None;
    count_instructions = false;
    metrics = true;
    tick_jitter = 0.0;
    seed = 1;
    max_cycles = None;
    max_depth = 100_000;
    fault_after_instr = None;
    epoch_ticks = None;
  }

let injected_fault_reason = "fault injected: instruction budget exhausted"

type fault = { fault_pc : int; reason : string }

let pp_fault ppf f = Format.fprintf ppf "fault at pc %d: %s" f.fault_pc f.reason

type status = Running | Halted | Faulted of fault

(* The epoch engine: cumulative counter values at the last boundary,
   against which each window's delta is computed. Baselines and
   entries live outside simulated time — taking a snapshot costs the
   running program nothing, like the metrics counters. *)
type epoch_state = {
  ep_every : int;
  mutable ep_base_counts : int array;
  mutable ep_base_arcs : Gmon.arc list;
  mutable ep_entries : Gmon.Epoch.entry list; (* newest first *)
}

(* Frames are flat: frame [d] occupies the [frame_words] words of
   [frames] from [d * frame_words], holding its return address, its
   function's entry, the operand-stack height when it was pushed, and
   the base of its locals in [locals]. Locals of all live frames share
   one array: only the innermost frame runs, so only it ever grows its
   region (by [Enter]), which always ends at [lp]. Calls, returns and
   prologues therefore allocate nothing once the arrays are warm. *)
let frame_words = 4
let fr_ret = 0
let fr_func = 1
let fr_base = 2
let fr_locals = 3

type t = {
  config : config;
  o : Objfile.t;
  text : Instr.t array;
  cost : int array; (* Instr.cost of every text word *)
  entries : Bytes.t; (* '\001' at every function entry address *)
  cycle_limit : int; (* max_cycles, or max_int when unlimited *)
  mutable pc : int;
  mutable stack : int array; (* operand stack, live below [sp] *)
  mutable sp : int;
  mutable frames : int array;
  mutable depth : int; (* live frames *)
  mutable locals : int array;
  mutable lbase : int; (* the innermost frame's first local *)
  mutable lp : int; (* one past the innermost frame's last local *)
  globals : int array;
  arrays : int array array;
  mutable cycles : int;
  mutable next_tick : int;
  mutable n_ticks : int;
  profil : Profil.t;
  monitor : Monitor.t;
  mutable monitoring : bool;
  mutable mcount_cycles : int;
  pcounts : int array;
  oracle : Oracle.t option;
  sampler : Stacksamp.t option;
  icounts : int array;
      (* execution count per text address, kept when either
         count_instructions or metrics is on (empty otherwise): the
         instruction total and the dispatch-group mix are folds of it,
         so the loop pays one array bump for all three *)
  prng : Util.Prng.t;
  out : Buffer.t;
  mutable status : status;
  mutable result : int option;
  mutable countdown : int;
      (* instructions left before the injected fault (max_int when
         none), decremented independently of the metrics counters so
         injection works with metrics off *)
  epochs : epoch_state option;
}

let create ?(config = default_config) o =
  let text = o.Objfile.text in
  let text_size = Array.length text in
  if text_size = 0 then invalid_arg "Machine.create: empty text segment";
  let profil =
    Profil.create ~lowpc:0 ~highpc:text_size ~bucket_size:config.hist_bucket_size
  in
  if not config.histogram then Profil.disable profil;
  (* Only a symbol's start can be an entry, so one lookup per symbol
     (not per text word) reproduces [func_id_of_addr] exactly, even
     for a malformed table. *)
  let entries = Bytes.make text_size '\000' in
  Array.iter
    (fun (s : Objfile.symbol) ->
      if s.addr >= 0 && s.addr < text_size && Objfile.func_id_of_addr o s.addr <> None
      then Bytes.set entries s.addr '\001')
    o.symbols;
  let m =
    {
      config;
      o;
      text;
      cost = Array.map Instr.cost text;
      entries;
      cycle_limit = Option.value config.max_cycles ~default:max_int;
      pc = o.entry;
      stack = Array.make 256 0;
      sp = 0;
      frames = Array.make (64 * frame_words) 0;
      depth = 0;
      locals = Array.make 256 0;
      lbase = 0;
      lp = 0;
      globals = Array.copy o.global_init;
      arrays = Array.map (fun (_, len) -> Array.make len 0) o.arrays;
      cycles = 0;
      next_tick = config.cycles_per_tick;
      n_ticks = 0;
      profil;
      monitor = Monitor.create ~text_size ~keying:config.keying;
      monitoring = config.monitoring;
      mcount_cycles = 0;
      pcounts = Array.make (Array.length o.symbols) 0;
      oracle = (if config.oracle then Some (Oracle.create ()) else None);
      sampler =
        Option.map
          (fun i ->
            Stacksamp.create ?capacity:config.stack_capacity ~interval:i ())
          config.stack_interval;
      icounts =
        (if config.count_instructions || config.metrics then Array.make text_size 0
         else [||]);
      prng = Util.Prng.create config.seed;
      out = Buffer.create 256;
      status = Running;
      result = None;
      countdown = Option.value config.fault_after_instr ~default:max_int;
      epochs =
        (match config.epoch_ticks with
        | None -> None
        | Some n ->
          if n <= 0 then invalid_arg "Machine.create: epoch_ticks must be positive";
          Some
            {
              ep_every = n;
              ep_base_counts =
                Array.make
                  (Gmon.n_buckets ~lowpc:0 ~highpc:text_size
                     ~bucket_size:config.hist_bucket_size)
                  0;
              ep_base_arcs = [];
              ep_entries = [];
            });
    }
  in
  (* The startup stub "calls" main: a frame with a sentinel return
     address, which the monitor will classify as spontaneous. *)
  m.frames.(fr_ret) <- -1;
  m.frames.(fr_func) <- o.entry;
  m.depth <- 1;
  (match m.oracle with
  | Some orc -> Oracle.on_call orc ~site:(-1) ~callee:o.entry ~now:0
  | None -> ());
  m

let obj m = m.o
let status m = m.status
let cycles m = m.cycles
let ticks m = m.n_ticks
let output m = Buffer.contents m.out
let result m = m.result
let pcounts m = Array.copy m.pcounts

let instruction_counts m =
  if m.config.count_instructions then Some (Array.copy m.icounts) else None

let monitor m = m.monitor
let mcount_cycles m = m.mcount_cycles
let the_oracle m = m.oracle

let instructions_executed m =
  if m.config.metrics then Array.fold_left ( + ) 0 m.icounts else 0

(* Execution count per Instr.group. *)
let dispatch m =
  let d = Array.make Instr.n_groups 0 in
  if m.config.metrics then
    Array.iteri
      (fun pc n ->
        let g = Instr.group m.text.(pc) in
        d.(g) <- d.(g) + n)
      m.icounts;
  d

let dispatch_counts m =
  Array.to_list (Array.mapi (fun g n -> (Instr.group_name g, n)) (dispatch m))

let observe m reg =
  let module M = Obs.Metrics in
  let g name v = M.set (M.gauge reg name) v in
  g "vm.instructions" (instructions_executed m);
  g "vm.cycles" m.cycles;
  g "vm.ticks" m.n_ticks;
  g "vm.mcount_cycles" m.mcount_cycles;
  g "vm.stack_depth" m.sp;
  g "vm.frame_depth" m.depth;
  Array.iteri
    (fun grp n -> if n > 0 then g ("vm.dispatch." ^ Instr.group_name grp) n)
    (dispatch m);
  Option.iter (fun s -> Stacksamp.observe s reg) m.sampler;
  Monitor.observe m.monitor reg;
  Profil.observe m.profil reg

let sampler m = m.sampler

let stack_folded m =
  match m.sampler with Some s -> Stacksamp.folded s | None -> []

let sprof m =
  Option.map
    (fun s ->
      Gmon.Sprof.of_folded ~sample_interval:(Stacksamp.interval s)
        ~ticks_per_second:m.config.ticks_per_second
        ~cycles_per_tick:m.config.cycles_per_tick (Stacksamp.folded s))
    m.sampler

let profiling_on m =
  m.monitoring <- true;
  Profil.enable m.profil

let profiling_off m =
  m.monitoring <- false;
  Profil.disable m.profil

let reset_profile m =
  Profil.reset m.profil;
  Monitor.reset m.monitor;
  Array.fill m.pcounts 0 (Array.length m.pcounts) 0;
  Option.iter Stacksamp.reset m.sampler;
  (* The cumulative counters just went to zero, so the deltas restart
     from zero too; epochs already recorded describe real history and
     are kept. *)
  Option.iter
    (fun es ->
      Array.fill es.ep_base_counts 0 (Array.length es.ep_base_counts) 0;
      es.ep_base_arcs <- [])
    m.epochs

let profile m =
  {
    Gmon.hist = Profil.hist m.profil;
    arcs = Monitor.arcs m.monitor;
    ticks_per_second = m.config.ticks_per_second;
    cycles_per_tick = m.config.cycles_per_tick;
    runs = 1;
  }

(* --- the epoch engine ----------------------------------------------- *)

(* Subtract two sorted cumulative arc lists: [cur] extends [prev]
   (counters only grow between boundaries), so every key of [prev]
   appears in [cur]. Arcs whose count did not move are omitted. *)
let arc_delta ~prev ~cur =
  let rec go prev cur acc =
    match (prev, cur) with
    | _, [] -> List.rev acc
    | [], c :: cs -> go [] cs (if c.Gmon.a_count <> 0 then c :: acc else acc)
    | p :: ps, c :: cs ->
      let k =
        compare (c.Gmon.a_from, c.Gmon.a_self) (p.Gmon.a_from, p.Gmon.a_self)
      in
      if k = 0 then begin
        let d = c.Gmon.a_count - p.Gmon.a_count in
        go ps cs (if d <> 0 then { c with Gmon.a_count = d } :: acc else acc)
      end
      else if k < 0 then go (p :: ps) cs (c :: acc)
      else (* a key vanished: counters were reset; start over *) go ps (c :: cs) acc
  in
  go prev cur []

(* The window's delta against the baselines, as an epoch entry ending
   now. Does not advance the baselines. *)
let epoch_delta_of m es ~cur_counts ~cur_arcs =
  {
    Gmon.Epoch.ep_end_cycle = m.cycles;
    ep_end_tick = m.n_ticks;
    ep_counts = Array.mapi (fun i c -> c - es.ep_base_counts.(i)) cur_counts;
    ep_arcs = arc_delta ~prev:es.ep_base_arcs ~cur:cur_arcs;
  }

let epoch_delta m es =
  epoch_delta_of m es
    ~cur_counts:(Profil.hist m.profil).Gmon.h_counts
    ~cur_arcs:(Monitor.arcs m.monitor)

(* The boundary runs on the tick path, so the monitor walk and the
   histogram copy happen exactly once: the same snapshot serves as
   this window's delta input and the next window's baseline. *)
let epoch_boundary m es =
  let cur_counts = (Profil.hist m.profil).Gmon.h_counts in
  let cur_arcs = Monitor.arcs m.monitor in
  let e = epoch_delta_of m es ~cur_counts ~cur_arcs in
  es.ep_entries <- e :: es.ep_entries;
  es.ep_base_counts <- cur_counts;
  es.ep_base_arcs <- cur_arcs

let epochs m =
  Option.map
    (fun es ->
      let trailing =
        let e = epoch_delta m es in
        if
          es.ep_entries = []
          || Array.exists (fun c -> c <> 0) e.Gmon.Epoch.ep_counts
          || e.Gmon.Epoch.ep_arcs <> []
        then [ e ]
        else []
      in
      let h = Profil.hist m.profil in
      {
        Gmon.Epoch.e_lowpc = h.Gmon.h_lowpc;
        e_highpc = h.Gmon.h_highpc;
        e_bucket_size = h.Gmon.h_bucket_size;
        e_ticks_per_second = m.config.ticks_per_second;
        e_cycles_per_tick = m.config.cycles_per_tick;
        e_epochs = List.rev_append es.ep_entries trailing;
      })
    m.epochs

(* --- execution ------------------------------------------------------ *)

(* One [run] or [run_cycles] call is one loop under one handler. An
   instruction that faults raises [Fault] before it moves [pc], so the
   handler reports the faulting address from [m.pc]. *)
exception Fault of string

exception Stop

let fault m reason =
  let f = { fault_pc = m.pc; reason } in
  m.status <- Faulted f;
  Faulted f

(* [a] copied into an array of at least [n] words, at least doubled. *)
let grown a n =
  let b = Array.make (max n (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let[@inline] push m v =
  let sp = m.sp in
  if sp = Array.length m.stack then m.stack <- grown m.stack (sp + 1);
  Array.unsafe_set m.stack sp v;
  m.sp <- sp + 1

let[@inline] pop m =
  let sp = m.sp - 1 in
  if sp < 0 then raise (Fault "operand stack underflow");
  m.sp <- sp;
  Array.unsafe_get m.stack sp

(* A word of the innermost frame. *)
let[@inline] frame m field = m.frames.(((m.depth - 1) * frame_words) + field)

let call_stack m = Array.init m.depth (fun d -> m.frames.((d * frame_words) + fr_func))

let next_interval m =
  let cpt = m.config.cycles_per_tick in
  if m.config.tick_jitter <= 0.0 then cpt
  else begin
    let q = m.config.tick_jitter in
    let delta = Util.Prng.float m.prng (q *. float_of_int cpt) in
    let d = int_of_float (delta -. (q *. float_of_int cpt /. 2.0)) in
    max 1 (cpt + d)
  end

(* Fire any clock ticks the last instruction completed. [at_pc] is the
   address of the instruction during which the tick landed. *)
let service_ticks m ~at_pc =
  while m.cycles >= m.next_tick do
    m.n_ticks <- m.n_ticks + 1;
    Profil.sample m.profil ~pc:at_pc;
    (match m.sampler with
    | Some s ->
      let cost = Stacksamp.on_tick s ~stack:(call_stack m) in
      m.cycles <- m.cycles + cost
    | None -> ());
    (match m.epochs with
    | Some es when m.n_ticks mod es.ep_every = 0 -> epoch_boundary m es
    | _ -> ());
    m.next_tick <- m.next_tick + next_interval m
  done

let ensure_locals m n = if n > Array.length m.locals then m.locals <- grown m.locals n

let do_call m ~target ~nargs ~ret_pc =
  if m.depth >= m.config.max_depth then raise (Fault "call depth limit exceeded");
  if target < 0 || target >= Array.length m.text then
    raise (Fault (Printf.sprintf "call target %d outside text" target));
  if Bytes.get m.entries target = '\000' then
    raise (Fault (Printf.sprintf "call target %d is not a function entry" target));
  if nargs < 0 then raise (Fault "negative argument count");
  (* The arguments become the callee's first locals, in push order. *)
  if m.sp < nargs then begin
    m.sp <- 0;
    raise (Fault "operand stack underflow")
  end;
  let base = m.sp - nargs and lbase = m.lp in
  ensure_locals m (lbase + nargs);
  for i = 0 to nargs - 1 do
    m.locals.(lbase + i) <- m.stack.(base + i)
  done;
  m.sp <- base;
  let d = m.depth in
  let f = d * frame_words in
  if f + frame_words > Array.length m.frames then
    m.frames <- grown m.frames (f + frame_words);
  m.frames.(f + fr_ret) <- ret_pc;
  m.frames.(f + fr_func) <- target;
  m.frames.(f + fr_base) <- base;
  m.frames.(f + fr_locals) <- lbase;
  m.depth <- d + 1;
  m.lbase <- lbase;
  m.lp <- lbase + nargs;
  (match m.oracle with
  | Some orc -> Oracle.on_call orc ~site:(ret_pc - 1) ~callee:target ~now:m.cycles
  | None -> ());
  m.pc <- target

let do_ret m =
  let value = pop m in
  let d = m.depth - 1 in
  let f = d * frame_words in
  m.depth <- d;
  (match m.oracle with
  | Some orc -> Oracle.on_return orc ~now:m.cycles
  | None -> ());
  (* Reset the operand stack to the caller's height; balanced code
     leaves nothing extra, but hand-written code may. *)
  let base = m.frames.(f + fr_base) in
  if m.sp > base then m.sp <- base;
  m.lp <- m.lbase;
  if d = 0 then begin
    m.status <- Halted;
    m.result <- Some value
  end
  else begin
    m.lbase <- m.frames.(f - frame_words + fr_locals);
    push m value;
    m.pc <- m.frames.(f + fr_ret)
  end

let[@inline] local_index m slot =
  if slot < 0 || slot >= m.lp - m.lbase then
    raise (Fault (Printf.sprintf "local slot %d out of range" slot));
  m.lbase + slot

let[@inline] global_index m g =
  if g < 0 || g >= Array.length m.globals then
    raise (Fault (Printf.sprintf "global %d out of range" g));
  g

let[@inline] array_of m a =
  if a < 0 || a >= Array.length m.arrays then
    raise (Fault (Printf.sprintf "array %d out of range" a));
  m.arrays.(a)

let[@inline] element_index m a arr i =
  if i < 0 || i >= Array.length arr then
    raise
      (Fault
         (Printf.sprintf "index %d out of bounds for %s[%d]" i
            (fst m.o.Objfile.arrays.(a))
            (Array.length arr)));
  i

let[@inline] alu_apply op a b =
  match (op : Instr.alu) with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then raise (Fault "division by zero") else a / b
  | Mod -> if b = 0 then raise (Fault "division by zero") else a mod b
  | Lt -> if a < b then 1 else 0
  | Le -> if a <= b then 1 else 0
  | Gt -> if a > b then 1 else 0
  | Ge -> if a >= b then 1 else 0
  | Eq -> if a = b then 1 else 0
  | Ne -> if a <> b then 1 else 0

let syscall m (sc : Instr.syscall) =
  match sc with
  | Sys_print ->
    let v = pop m in
    Buffer.add_string m.out (string_of_int v);
    Buffer.add_char m.out '\n';
    push m v
  | Sys_putc ->
    let v = pop m in
    Buffer.add_char m.out (Char.chr (((v mod 256) + 256) mod 256));
    push m v
  | Sys_rand ->
    let bound = pop m in
    push m (if bound <= 0 then 0 else Util.Prng.int m.prng bound)
  | Sys_cycles -> push m m.cycles

(* Run until halt, fault, or [m.cycles >= stop_at]. Per instruction
   the fixed work is the pc bounds test, the injected-fault countdown,
   the cycle charge with its limit test, and one compare against the
   next event: the next clock tick, the slice's end, or (forced to
   [min_int]) a halt. The feature choices are read once per call. *)
let exec m ~stop_at =
  match m.status with
  | Halted | Faulted _ -> m.status
  | Running when m.cycles >= stop_at -> m.status
  | Running -> (
    let text = m.text and cost = m.cost and n = Array.length m.text in
    let limit = m.cycle_limit in
    let counting = Array.length m.icounts > 0 and icounts = m.icounts in
    let next_event = ref (Int.min m.next_tick stop_at) in
    try
      while true do
        let pc = m.pc in
        if pc < 0 || pc >= n then raise (Fault "pc outside text segment");
        if m.countdown <= 0 then raise (Fault injected_fault_reason);
        m.countdown <- m.countdown - 1;
        if counting then icounts.(pc) <- icounts.(pc) + 1;
        let cycles = m.cycles + Array.unsafe_get cost pc in
        m.cycles <- cycles;
        if cycles > limit then raise (Fault "cycle limit exceeded");
        (match Array.unsafe_get text pc with
        | Instr.Nop -> m.pc <- pc + 1
        | Instr.Const k ->
          push m k;
          m.pc <- pc + 1
        | Instr.Load slot ->
          push m m.locals.(local_index m slot);
          m.pc <- pc + 1
        | Instr.Store slot ->
          let i = local_index m slot in
          m.locals.(i) <- pop m;
          m.pc <- pc + 1
        | Instr.Gload g ->
          push m m.globals.(global_index m g);
          m.pc <- pc + 1
        | Instr.Gstore g ->
          let i = global_index m g in
          m.globals.(i) <- pop m;
          m.pc <- pc + 1
        | Instr.Aload a ->
          let arr = array_of m a in
          let i = element_index m a arr (pop m) in
          push m arr.(i);
          m.pc <- pc + 1
        | Instr.Astore a ->
          let arr = array_of m a in
          let v = pop m in
          let i = element_index m a arr (pop m) in
          arr.(i) <- v;
          m.pc <- pc + 1
        | Instr.Alu op ->
          let b = pop m in
          let a = pop m in
          push m (alu_apply op a b);
          m.pc <- pc + 1
        | Instr.Unop Neg ->
          push m (-pop m);
          m.pc <- pc + 1
        | Instr.Unop Not ->
          push m (if pop m = 0 then 1 else 0);
          m.pc <- pc + 1
        | Instr.Jump target -> m.pc <- target
        | Instr.Jumpz target -> m.pc <- (if pop m = 0 then target else pc + 1)
        | Instr.Call (target, nargs) -> do_call m ~target ~nargs ~ret_pc:(pc + 1)
        | Instr.Calli nargs ->
          let target = pop m in
          do_call m ~target ~nargs ~ret_pc:(pc + 1)
        | Instr.Funref addr ->
          push m addr;
          m.pc <- pc + 1
        | Instr.Enter extra ->
          if extra < 0 then raise (Fault "negative local count");
          if extra > Sys.max_array_length - m.lp then raise (Fault "local count too large");
          let lp = m.lp + extra in
          ensure_locals m lp;
          for i = m.lp to lp - 1 do
            m.locals.(i) <- 0
          done;
          m.lp <- lp;
          m.pc <- pc + 1
        | Instr.Mcount ->
          if m.monitoring then begin
            let cost =
              Monitor.record m.monitor ~frompc:(frame m fr_ret - 1)
                ~selfpc:(frame m fr_func)
            in
            m.cycles <- m.cycles + cost;
            m.mcount_cycles <- m.mcount_cycles + cost
          end;
          m.pc <- pc + 1
        | Instr.Pcount f ->
          if m.monitoring then begin
            if f < 0 || f >= Array.length m.pcounts then
              raise (Fault (Printf.sprintf "pcount id %d out of range" f));
            m.pcounts.(f) <- m.pcounts.(f) + 1
          end;
          m.pc <- pc + 1
        | Instr.Ret ->
          do_ret m;
          if m.depth = 0 then next_event := min_int
        | Instr.Pop ->
          ignore (pop m);
          m.pc <- pc + 1
        | Instr.Syscall sc ->
          syscall m sc;
          m.pc <- pc + 1
        | Instr.Halt ->
          m.status <- Halted;
          m.result <- Some 0;
          next_event := min_int);
        if m.cycles >= !next_event then begin
          service_ticks m ~at_pc:pc;
          (match (m.status, m.oracle) with
          | Halted, Some orc -> Oracle.finish orc ~now:m.cycles
          | _ -> ());
          match m.status with
          | Running when m.cycles < stop_at -> next_event := Int.min m.next_tick stop_at
          | _ -> raise_notrace Stop
        end
      done;
      m.status
    with
    | Stop -> m.status
    | Fault reason -> fault m reason)

let run m = exec m ~stop_at:max_int

let run_cycles m budget = exec m ~stop_at:(m.cycles + budget)
