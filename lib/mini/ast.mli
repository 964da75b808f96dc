(** Abstract syntax for Mini, the small procedural language whose
    compiled programs the profiler measures.

    Mini plays the role of the paper's C/Fortran77/Pascal: a language
    whose compiler can "insert calls to a monitoring routine in the
    prologue for each routine". It has integers, global scalars and
    arrays, structured control flow, and {e function-valued
    expressions} — the "functional parameters and functional
    variables" whose indirect calls motivate the arc hash table's
    collision handling. *)

type loc = { line : int; col : int }

val dummy_loc : loc

val pp_loc : Format.formatter -> loc -> unit

type binop =
  | Add | Sub | Mul | Div | Mod
  | Lt | Le | Gt | Ge | Eq | Ne
  | And  (** short-circuit *)
  | Or   (** short-circuit *)

type unop = Neg | Not

type expr = { desc : expr_desc; eloc : loc }

and expr_desc =
  | Int of int
  | Var of string
      (** A variable, parameter, or function name used as a value. *)
  | Index of string * expr  (** [a\[i\]] on a global array *)
  | Call of expr * expr list
      (** [f(args)]: direct when [f] is a function name, indirect when
          [f] is any other expression *)
  | Binop of binop * expr * expr
  | Unop of unop * expr

type stmt = { sdesc : stmt_desc; sloc : loc }

and stmt_desc =
  | Decl of string * expr option  (** [var x;] or [var x = e;] *)
  | Assign of string * expr
  | Astore of string * expr * expr  (** [a\[i\] = e;] *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of stmt * expr * stmt * stmt list
      (** [for (init; cond; step) body]; [init]/[step] are assignments
          or declarations *)
  | Return of expr option
  | Break  (** leave the innermost loop *)
  | Continue  (** next iteration of the innermost loop *)
  | Expr of expr  (** expression for effect; value discarded *)

type fundef = {
  fname : string;
  params : string list;
  body : stmt list;
  floc : loc;
}

type global =
  | Gvar of string * int * loc  (** [var g;] with initial value *)
  | Garray of string * int * loc  (** [array a\[n\];], zero-initialized *)

type program = { globals : global list; funs : fundef list }

val mk_expr : ?loc:loc -> expr_desc -> expr

val mk_stmt : ?loc:loc -> stmt_desc -> stmt

val equal_expr : expr -> expr -> bool
(** Structural equality ignoring locations. *)

val equal_program : program -> program -> bool
(** Structural equality ignoring locations; used by the
    parse-pretty-parse round-trip tests. *)

val binop_name : binop -> string
(** Source syntax of the operator, e.g. ["+"], ["&&"]. *)

val unop_name : unop -> string
