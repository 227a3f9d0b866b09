(* Versions are process-wide, so stamps from different vectors never
   collide; 0 is never issued and marks pages no vector owns. *)
let versions = Atomic.make 1
let fresh () = Atomic.fetch_and_add versions 1

(* Page sizes measured on close-link and company-control updates: see
   DESIGN.md §8. *)
let append_bits = 10
let slot_bits = 8

type 'a t = {
  shift : int;
  mask : int;                       (* full page size - 1 *)
  fill : 'a;
  mutable pages : 'a array array;   (* page table; unused entries are [||] *)
  mutable stamps : int array;       (* per page: the version that owns it *)
  mutable npages : int;
  mutable cap : int;                (* slots backed by pages *)
  mutable version : int;
  mutable len : int;
}

(* Page 0 starts short and doubles until it reaches the full page size,
   so a vector of a few elements costs a few words: offsets within page
   0 are below the full size either way. *)
let create ~bits fill =
  {
    shift = bits;
    mask = (1 lsl bits) - 1;
    fill;
    pages = [||];
    stamps = [||];
    npages = 0;
    cap = 0;
    version = fresh ();
    len = 0;
  }

let make ~bits n fill =
  let size = 1 lsl bits in
  let t = create ~bits fill in
  if n <= size then
    {
      t with
      pages = [| Array.make (max 1 n) fill |];
      stamps = [| t.version |];
      npages = 1;
      cap = max 1 n;
      len = n;
    }
  else begin
    (* every page starts as one shared page of fill values, unowned *)
    let npages = (n + size - 1) / size in
    {
      t with
      pages = Array.make npages (Array.make size fill);
      stamps = Array.make npages 0;
      npages;
      cap = npages * size;
      len = n;
    }
  end

let copy t =
  (* the original gives up its pages as well: a later write to either
     side copies the page it touches *)
  t.version <- fresh ();
  { t with pages = Array.copy t.pages; stamps = Array.copy t.stamps; version = fresh () }

let length t = t.len

let unsafe_get t i =
  Array.unsafe_get (Array.unsafe_get t.pages (i lsr t.shift)) (i land t.mask)

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Paged.get";
  unsafe_get t i

(* the page holding slot [i], copied first unless this vector owns it *)
let own t i =
  if i < 0 || i >= t.len then invalid_arg "Paged.set";
  let p = i lsr t.shift in
  if Array.unsafe_get t.stamps p <> t.version then begin
    t.pages.(p) <- Array.copy t.pages.(p);
    t.stamps.(p) <- t.version
  end;
  Array.unsafe_get t.pages p

let set t i x = Array.unsafe_set (own t i) (i land t.mask) x

(* Int vectors carry the join core's columns, chains and slots: with
   the element type known, an access is a plain load or store, with no
   float-array check of the page header and no write barrier. *)
let unsafe_get_int (t : int t) i =
  Array.unsafe_get (Array.unsafe_get t.pages (i lsr t.shift) : int array) (i land t.mask)

let get_int (t : int t) i =
  if i < 0 || i >= t.len then invalid_arg "Paged.get";
  unsafe_get_int t i

let set_int (t : int t) i x = Array.unsafe_set (own t i : int array) (i land t.mask) x

let add_page t page =
  if t.npages = Array.length t.pages then begin
    let n = max 4 (2 * t.npages) in
    let pages = Array.make n [||] and stamps = Array.make n 0 in
    Array.blit t.pages 0 pages 0 t.npages;
    Array.blit t.stamps 0 stamps 0 t.npages;
    t.pages <- pages;
    t.stamps <- stamps
  end;
  t.pages.(t.npages) <- page;
  t.stamps.(t.npages) <- t.version;
  t.npages <- t.npages + 1

(* Back slots [0, n) with pages.  Slots past [len] hold the fill value
   on every page: writes stop at [len], and a push copies a shared page
   before writing into it. *)
let reserve t n =
  let size = t.mask + 1 in
  if t.cap < size then begin
    let page = Array.make (min size (max n (max 8 (2 * t.cap)))) t.fill in
    if t.npages = 0 then add_page t page
    else begin
      Array.blit t.pages.(0) 0 page 0 t.cap;
      t.pages.(0) <- page;
      t.stamps.(0) <- t.version
    end;
    t.cap <- Array.length page
  end;
  while t.cap < n do
    add_page t (Array.make size t.fill);
    t.cap <- t.cap + size
  done

let push t x =
  let i = t.len in
  if i >= t.cap then reserve t (i + 1);
  t.len <- i + 1;
  set t i x

let push_int (t : int t) x =
  let i = t.len in
  if i >= t.cap then reserve t (i + 1);
  t.len <- i + 1;
  set_int t i x

let grow t n =
  if n > t.len then begin
    if n > t.cap then reserve t n;
    t.len <- n
  end
