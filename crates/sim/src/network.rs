//! The simulated network fabric: a dense table of directed (possibly
//! multi-class) channels over a topology.
//!
//! Wormhole routers allocate *directed channels*; a physical link
//! contributes one channel per direction per class. Single-channel
//! networks have one class; the double-channel networks of §6.2.1 and the
//! Fig 7.8/7.9 experiments have two.

use mcast_topology::{Channel, FaultMask, NodeId, Topology};

/// Dense channel identifier within a [`Network`].
pub type ChannelId = usize;

/// Largest channel count a [`Network`] holds: every id must fit the
/// engine's `u32` channel fields with `u32::MAX` left free as their
/// "no channel" sentinel.
pub const MAX_CHANNELS: usize = u32::MAX as usize;

/// Head node of one directed link — the only per-link array.
type LinkHead = u32;

/// Network bytes per channel at one class: the link's head node plus the
/// channel's failure flag (the per-node row offsets are not per channel).
const BYTES_PER_CHANNEL: usize = size_of::<LinkHead>() + size_of::<bool>();
const _: () = assert!(BYTES_PER_CHANNEL <= 16);

/// The channel table of a simulated network.
///
/// Channel ids are assigned link-major: the class copies of one directed
/// link occupy consecutive ids `base..base + classes`. Links are
/// numbered in [`Topology::channels`] order — from-major, each node's
/// links in its neighbour order — so the CSR adjacency over the `from`
/// node *is* the link table: a link's position in it is its index, and
/// its base id is that index times `classes`. No per-channel endpoint
/// table exists; [`Network::channel`] recovers the tail node by a binary
/// search over the row offsets. Lookups scan one row (a handful of
/// neighbours) instead of hashing — `id_of`/`link_base` sit on the
/// engine's worm-build path.
#[derive(Debug, Clone)]
pub struct Network {
    classes: u8,
    /// CSR row offsets: node `n`'s outgoing links are the indices
    /// `adj_start[n]..adj_start[n + 1]`.
    adj_start: Vec<u32>,
    /// Head node of every directed link, by link index.
    link_to: Vec<LinkHead>,
    /// Per-channel failure flag: a failed physical link marks every
    /// class of both directions dead, and dead channels are never
    /// granted. All-false when healthy, so the table starts as a zeroed
    /// allocation.
    dead: Vec<bool>,
}

impl Network {
    /// Builds the channel table for `topo` with `classes` copies of every
    /// directed channel (1 = single-channel, 2 = double-channel).
    ///
    /// # Panics
    /// If the channel count exceeds [`MAX_CHANNELS`]. Spec-driven callers
    /// meet this limit earlier as a typed error
    /// (`registry::check_channel_ids`); the assert is the last line of
    /// defence.
    pub fn new<T: Topology + ?Sized>(topo: &T, classes: u8) -> Self {
        assert!(classes >= 1, "at least one channel class");
        let num_nodes = topo.num_nodes();
        let mut adj_start = Vec::with_capacity(num_nodes + 1);
        let mut link_to: Vec<LinkHead> = Vec::new();
        let mut nb = Vec::new();
        adj_start.push(0);
        for n in 0..num_nodes {
            topo.neighbors_into(n, &mut nb);
            link_to.extend(nb.iter().map(|&m| m as LinkHead));
            adj_start.push(link_to.len() as u32);
        }
        let channels = link_to.len().saturating_mul(classes as usize);
        assert!(
            channels <= MAX_CHANNELS && num_nodes <= MAX_CHANNELS,
            "{channels} channels over {num_nodes} nodes exceed the u32 id space"
        );
        Network {
            classes,
            adj_start,
            link_to,
            dead: vec![false; channels],
        }
    }

    /// Number of channels (all classes).
    pub fn num_channels(&self) -> usize {
        self.dead.len()
    }

    /// Number of nodes in the underlying topology.
    pub fn num_nodes(&self) -> usize {
        self.adj_start.len() - 1
    }

    /// Number of channel classes.
    pub fn classes(&self) -> u8 {
        self.classes
    }

    /// Link indices leaving `from`.
    fn row(&self, from: NodeId) -> std::ops::Range<usize> {
        self.adj_start[from] as usize..self.adj_start[from + 1] as usize
    }

    /// The channel with a given id.
    pub fn channel(&self, id: ChannelId) -> Channel {
        let classes = self.classes as usize;
        let link = id / classes;
        // The last row starting at or before `link` holds it (empty
        // rows of isolated nodes start at the same offset and sort
        // earlier).
        let from = self.adj_start.partition_point(|&s| s as usize <= link) - 1;
        Channel::with_class(from, self.link_to[link] as NodeId, (id % classes) as u8)
    }

    /// The base (class-0) channel id of the directed `from → to` link;
    /// its class copies occupy the consecutive ids
    /// `base..base + classes`.
    #[inline]
    pub fn link_base(&self, from: NodeId, to: NodeId) -> Option<ChannelId> {
        if from >= self.num_nodes() {
            return None;
        }
        let row = self.row(from);
        let start = row.start;
        self.link_to[row]
            .iter()
            .position(|&t| t as NodeId == to)
            .map(|i| (start + i) * self.classes as usize)
    }

    /// Looks up a specific `(from, to, class)` channel.
    pub fn id_of(&self, c: Channel) -> Option<ChannelId> {
        if c.class >= self.classes {
            return None;
        }
        self.link_base(c.from, c.to)
            .map(|base| base + c.class as usize)
    }

    /// All channel ids for the `(from, to)` direction, one per class.
    pub fn ids_of_link(&self, from: NodeId, to: NodeId) -> Vec<ChannelId> {
        match self.link_base(from, to) {
            Some(base) => (base..base + self.classes as usize).collect(),
            None => Vec::new(),
        }
    }

    /// Whether a channel is alive (failed channels are never granted).
    #[inline]
    pub fn is_alive(&self, id: ChannelId) -> bool {
        !self.dead[id]
    }

    /// Number of channels still alive.
    pub fn num_alive(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// Kills one directed channel. Returns `true` if it was alive.
    pub fn kill_channel(&mut self, id: ChannelId) -> bool {
        !std::mem::replace(&mut self.dead[id], true)
    }

    /// Kills the physical link between `a` and `b`: every class of both
    /// directions. Returns the ids of the channels that died (those that
    /// were still alive).
    pub fn kill_link(&mut self, a: NodeId, b: NodeId) -> Vec<ChannelId> {
        let mut died = Vec::new();
        for (from, to) in [(a, b), (b, a)] {
            for id in self.ids_of_link(from, to) {
                if self.kill_channel(id) {
                    died.push(id);
                }
            }
        }
        died
    }

    /// Every channel as `(id, channel)`, ascending by id (links are
    /// from-major, so walking the rows in node order is id order).
    fn each_channel(&self) -> impl Iterator<Item = (ChannelId, Channel)> + '_ {
        let classes = self.classes as usize;
        (0..self.num_nodes()).flat_map(move |from| {
            self.row(from).flat_map(move |link| {
                let to = self.link_to[link] as NodeId;
                (0..classes).map(move |class| {
                    (
                        link * classes + class,
                        Channel::with_class(from, to, class as u8),
                    )
                })
            })
        })
    }

    /// Kills every link incident to `node` (node failure = all its
    /// channels fail, §DESIGN.md fault model). Returns the dead channels.
    pub fn kill_node(&mut self, node: NodeId) -> Vec<ChannelId> {
        let hit: Vec<ChannelId> = self
            .each_channel()
            .filter(|(_, c)| c.from == node || c.to == node)
            .map(|(id, _)| id)
            .collect();
        hit.into_iter()
            .filter(|&id| self.kill_channel(id))
            .collect()
    }

    /// Applies a [`FaultMask`]: kills every channel the mask declares
    /// dead. Returns the newly dead channel ids.
    pub fn apply_fault_mask(&mut self, mask: &FaultMask) -> Vec<ChannelId> {
        let hit: Vec<ChannelId> = self
            .each_channel()
            .filter(|&(_, c)| !mask.is_channel_alive(c))
            .map(|(id, _)| id)
            .collect();
        hit.into_iter()
            .filter(|&id| self.kill_channel(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_topology::Mesh2D;

    #[test]
    fn single_class_table_matches_topology() {
        let m = Mesh2D::new(4, 3);
        let n = Network::new(&m, 1);
        assert_eq!(n.num_channels(), m.num_channels());
        for id in 0..n.num_channels() {
            assert_eq!(n.id_of(n.channel(id)), Some(id));
        }
    }

    #[test]
    fn class_copies_are_consecutive_from_link_base() {
        let m = Mesh2D::new(4, 3);
        let n = Network::new(&m, 2);
        for id in 0..n.num_channels() {
            let c = n.channel(id);
            let base = n.link_base(c.from, c.to).expect("link exists");
            assert_eq!(base + c.class as usize, id);
            assert_eq!(n.channel(base).class, 0);
        }
        assert_eq!(n.link_base(0, 5), None, "0 and 5 are not adjacent");
        assert_eq!(n.link_base(m.num_nodes(), 0), None);
    }

    /// Ids follow `Topology::channels()` order on every topology kind,
    /// class copies consecutive — the numbering traces, utilization CSVs
    /// and the partition's conflict keys depend on.
    #[test]
    fn ids_follow_topology_channel_order() {
        use mcast_topology::{Hypercube, KAryNCube, Mesh3D};
        let topos: Vec<Box<dyn Topology>> = vec![
            Box::new(Mesh2D::new(5, 3)),
            Box::new(Mesh3D::new(3, 2, 2)),
            Box::new(Hypercube::new(4)),
            Box::new(KAryNCube::torus(3, 2)),
            Box::new(KAryNCube::torus(2, 3)),
            Box::new(KAryNCube::mesh(4, 2)),
        ];
        for topo in &topos {
            for classes in 1..=3u8 {
                let n = Network::new(topo.as_ref(), classes);
                let links = topo.channels();
                assert_eq!(n.num_channels(), links.len() * classes as usize);
                for (i, c) in links.iter().enumerate() {
                    for k in 0..classes {
                        let id = i * classes as usize + k as usize;
                        assert_eq!(n.channel(id), Channel::with_class(c.from, c.to, k));
                        assert_eq!(n.id_of(n.channel(id)), Some(id));
                    }
                }
            }
        }
    }

    #[test]
    fn double_channel_table_doubles() {
        let m = Mesh2D::new(4, 3);
        let n = Network::new(&m, 2);
        assert_eq!(n.num_channels(), 2 * m.num_channels());
        let pair = n.ids_of_link(0, 1);
        assert_eq!(pair.len(), 2);
        assert_ne!(pair[0], pair[1]);
        assert_eq!(n.channel(pair[0]).class, 0);
        assert_eq!(n.channel(pair[1]).class, 1);
    }

    #[test]
    fn killing_a_link_kills_both_directions_and_all_classes() {
        let m = Mesh2D::new(4, 3);
        let mut n = Network::new(&m, 2);
        let before = n.num_alive();
        let died = n.kill_link(0, 1);
        assert_eq!(died.len(), 4, "2 classes x 2 directions");
        assert_eq!(n.num_alive(), before - 4);
        for id in n.ids_of_link(0, 1).into_iter().chain(n.ids_of_link(1, 0)) {
            assert!(!n.is_alive(id));
        }
        // Killing again reports nothing new.
        assert!(n.kill_link(0, 1).is_empty());
    }

    #[test]
    fn killing_a_node_kills_incident_channels_only() {
        let m = Mesh2D::new(3, 3);
        let mut n = Network::new(&m, 1);
        let died = n.kill_node(4); // center: 4 neighbors, 8 directed channels
        assert_eq!(died.len(), 8);
        assert!(n.is_alive(n.ids_of_link(0, 1)[0]));
    }

    #[test]
    fn fault_mask_application_matches_mask_semantics() {
        use mcast_topology::FaultMask;
        let m = Mesh2D::new(4, 3);
        let mut n = Network::new(&m, 1);
        let mut mask = FaultMask::none();
        mask.fail_link(0, 1);
        mask.fail_node(5);
        let died = n.apply_fault_mask(&mask);
        assert!(!died.is_empty());
        for id in 0..n.num_channels() {
            assert_eq!(n.is_alive(id), mask.is_channel_alive(n.channel(id)));
        }
    }
}
